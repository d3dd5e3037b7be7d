//! Shared supplier-side state: admission guard, media file, clock.
//!
//! The per-connection protocol is `p2ps_proto::SupplierConn`, hosted by
//! [`crate::serve`]; this module owns the state a node's public handle
//! and its reactor-hosted connections share, and is the machine's
//! [`SupplierAdmission`] seam onto it — the real §4.1 `SupplierState`,
//! its RNG and the grant reservation.

use parking_lot::Mutex;
use rand::rngs::SmallRng;

use p2ps_core::admission::{RequestDecision, SupplierState};
use p2ps_core::PeerClass;
use p2ps_media::MediaFile;
use p2ps_proto::SupplierAdmission;

use crate::Clock;

/// State shared between a node's reactor-hosted connections and its
/// public handle.
pub(crate) struct SupplierShared {
    pub class: PeerClass,
    /// The admission state's tick source (ms), shared by every node of a
    /// deployment. Protocol timeouts run on the hosting reactor's clock
    /// instead, inside the connection machine.
    pub clock: Clock,
    pub admission: Mutex<AdmissionGuard>,
    /// The media file, present once the peer owns a complete copy.
    pub file: Mutex<Option<MediaFile>>,
    /// Set on shutdown: in-flight streaming sessions abort (modelling a
    /// supplier crash mid-session).
    pub stop: std::sync::atomic::AtomicBool,
}

/// The admission state plus the grant reservation extension.
pub(crate) struct AdmissionGuard {
    pub state: SupplierState,
    pub rng: SmallRng,
    /// An unconfirmed grant is out: the connection it went to frees it
    /// on `Release`, hang-up or grant-TTL expiry, or turns it into the
    /// session.
    pub reserved: bool,
}

/// Locks only inside the calls the machine actually makes, so the paced
/// send path takes no lock until its session ends.
impl SupplierAdmission for &SupplierShared {
    fn decide(&mut self, class: PeerClass) -> RequestDecision {
        let now = self.clock.now_ms();
        let has_file = self.file.lock().is_some();
        let mut guard = self.admission.lock();
        let guard = &mut *guard;
        if !has_file {
            // Not yet a supplier: refuse outright (never advertised in the
            // directory, but a stale candidate record could still point
            // here).
            RequestDecision::Refused
        } else if guard.reserved {
            // Reserved by a concurrent requester: behave as busy. The
            // favored flag still reflects the current vector so the
            // requester's reminder logic stays sound.
            let favored = guard.state.vector_at(now).favors(class);
            RequestDecision::Busy { favored }
        } else {
            let d = guard.state.handle_request(now, class, &mut guard.rng);
            guard.reserved = d.is_granted();
            d
        }
    }

    fn release(&mut self) {
        self.admission.lock().reserved = false;
    }

    fn begin_session(&mut self) -> u64 {
        {
            let mut guard = self.admission.lock();
            guard.reserved = false;
            guard.state.begin_session(self.clock.now_ms());
        }
        // The plan already bounds by its own total; a shorter local file
        // copy additionally caps what can be served.
        let file = self.file.lock();
        file.as_ref().map_or(0, |f| f.info().segment_count())
    }

    fn end_session(&mut self) {
        self.admission.lock().state.end_session(self.clock.now_ms());
    }

    fn leave_reminder(&mut self, class: PeerClass) {
        self.admission.lock().state.leave_reminder(class);
    }
}
