//! Layer 3 — **execute**: run one functional body (on parkit, via the
//! caller's closure) inside its launch span. This layer owns the launch
//! telemetry; it never touches the ledger or the pricing cache.

use crate::launch::price::Priced;

/// Execute stage for one launch: open the `Launch` span, run `body`,
/// close the span. The span's flight open is written before the body
/// runs, so a crash inside the body leaves this launch open in the
/// recording — the attribution `blackbox` reads. The span carries the
/// kernel name, iteration count, effective bytes and simulated seconds,
/// so traces can report achieved GB/s per kernel.
pub(crate) fn execute<R>(priced: &Priced, body: impl FnOnce() -> R) -> R {
    let _span = telemetry::span(telemetry::SpanKind::Launch, &priced.name).with(
        priced.items,
        priced.effective_bytes,
        priced.time.total,
    );
    body()
}
