//! The launch path: one per-op implementation of each stage.
//!
//! 1. [`record`] — build a [`LaunchNode`] from kernel + traits, no lock.
//! 2. [`price`] — quirks + toolchain `ExecProfile` + platform model,
//!    served by the fingerprint cache.
//! 3. [`execute`] — one functional body on parkit, inside its launch
//!    span.
//! 4. [`commit`] — one op's ledger append, residency update and comm
//!    pricing, then the observe stage after the locks are released.
//!
//! The stages have two callers. Each eager [`Session`](crate::Session)
//! call (`launch`, `transfer`/`upload`/`download`, `exchange`) runs one op
//! through them; [`LaunchGraph::replay`](crate::LaunchGraph::replay)
//! loops them over a recorded sequence, holding the cache lock once for
//! pricing and the commit lock set once for committing. Both run
//! price → execute → commit → observe.

pub mod commit;
pub mod execute;
pub mod price;
pub mod record;
pub mod residency;

pub use record::{AccessMode, DatAccess, LaunchMeta, LaunchNode};
pub use residency::{Residency, TransferStats};
