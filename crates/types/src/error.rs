//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

use crate::{AppId, TxId};

/// Errors arising from malformed requests, detected by the ordering
/// service's access-control and validity checks (§III-A).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TypeError {
    /// A message signature failed verification.
    BadSignature {
        /// Human-readable description of the signed artifact.
        what: String,
    },
    /// A transaction was submitted twice (client timestamps enforce
    /// exactly-once semantics).
    DuplicateTransaction(TxId),
    /// The named application is not deployed.
    UnknownApp(AppId),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::BadSignature { what } => write!(f, "invalid signature on {what}"),
            TypeError::DuplicateTransaction(id) => {
                write!(f, "duplicate transaction {id}")
            }
            TypeError::UnknownApp(app) => write!(f, "unknown application {app}"),
        }
    }
}

impl Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClientId;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = TypeError::DuplicateTransaction(TxId::new(ClientId(1), 5));
        assert!(e.to_string().contains("t1.5"));
        let e = TypeError::UnknownApp(AppId(9));
        assert!(e.to_string().contains("A9"));
        let e = TypeError::BadSignature { what: "block".into() };
        assert!(e.to_string().contains("block"));
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<TypeError>();
    }
}
