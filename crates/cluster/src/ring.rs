//! Consistent-hash ring over `(route, content_hash)` with virtual nodes.
//!
//! The cluster's cache story depends on *affinity*: the worker gateways
//! each own a content-hash LRU, so a repeat of the same image on the same
//! route must land on the same worker or every cache is cold. A modulo
//! partition would give that — until the first membership change remapped
//! every key. The classic fix is a consistent-hash ring: each member
//! projects `vnodes` pseudo-random points onto a `u64` circle, a key hashes
//! to one point, and the owner is the first member point at or after it
//! (wrapping). Removing a member deletes only its points, so only the keys
//! that landed on those points move; adding one steals only the arcs
//! immediately before its new points.
//!
//! Two deliberate properties:
//!
//! - **Member identity is the hash seed**, not the address. A member that
//!   crashes and restarts on a new port keeps its [`MemberId`] and therefore
//!   its exact arcs — a restart is not a remap.
//! - **The ring is plain data.** Ownership changes travel to the router as
//!   explicit insert/remove calls; nothing here is shared or locked, which
//!   keeps the lookup on the reactor's per-request path a binary search and
//!   nothing else.
//!
//! Keys and vnode points hash with the store's FNV-1a 64, finished with
//! [`mix64`]: raw FNV-1a has weak high-bit avalanche on short structured
//! inputs (member ids and vnode indices are mostly-zero little-endian
//! words), which would cluster ring points and wreck balance.

use sesr_store::{fnv1a64, mix64, Fnv1a64};

/// Stable identity of a cluster member: assigned at cluster construction
/// (`0..n`) and preserved across restarts of the member's process.
pub type MemberId = u32;

/// Hash a request's routing key. The route label participates so distinct
/// routes spread independently; the content hash (already computed for the
/// wire integrity check) carries the image identity, preserving per-worker
/// cache affinity for repeats.
pub fn key_hash(route: &str, content_hash: u64) -> u64 {
    let mut hash = Fnv1a64::default();
    hash.write(route.as_bytes());
    hash.write(&content_hash.to_le_bytes());
    mix64(hash.finish())
}

/// The point a member's `index`-th virtual node projects to.
fn vnode_point(member: MemberId, index: u32) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..4].copy_from_slice(&member.to_le_bytes());
    bytes[4..].copy_from_slice(&index.to_le_bytes());
    mix64(fnv1a64(&bytes))
}

/// A consistent-hash ring: sorted `(point, member)` pairs plus the member
/// list. Lookup is a binary search; membership changes are `O(n log n)`
/// rebuild-free splices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(circle point, owner)` sorted by point. Ties are impossible in
    /// practice (64-bit points); if two members ever collided on a point the
    /// lower member id would win deterministically via the sort.
    points: Vec<(u64, MemberId)>,
    vnodes: u32,
    members: Vec<MemberId>,
}

impl HashRing {
    /// Default virtual nodes per member: enough that the max/min member
    /// share stays within ~2x for small fleets (see the proptests).
    pub const DEFAULT_VNODES: u32 = 64;

    /// An empty ring with `vnodes` virtual nodes per member (clamped to at
    /// least 1).
    pub fn new(vnodes: u32) -> HashRing {
        HashRing {
            points: Vec::new(),
            vnodes: vnodes.max(1),
            members: Vec::new(),
        }
    }

    /// A ring pre-populated with members `0..count`.
    pub fn with_members(count: u32, vnodes: u32) -> HashRing {
        let mut ring = HashRing::new(vnodes);
        for member in 0..count {
            ring.insert(member);
        }
        ring
    }

    /// Add `member`'s virtual nodes. Idempotent.
    pub fn insert(&mut self, member: MemberId) {
        if self.members.contains(&member) {
            return;
        }
        self.members.push(member);
        self.members.sort_unstable();
        self.points
            .extend((0..self.vnodes).map(|i| (vnode_point(member, i), member)));
        self.points.sort_unstable();
    }

    /// Remove `member`'s virtual nodes; only keys on its arcs remap.
    /// Idempotent.
    pub fn remove(&mut self, member: MemberId) {
        self.members.retain(|&m| m != member);
        self.points.retain(|&(_, m)| m != member);
    }

    /// Current members, ascending.
    pub fn members(&self) -> &[MemberId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no members remain.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member owning `hash`: the first virtual node clockwise from the
    /// hash point (wrapping past zero). `None` on an empty ring.
    pub fn owner_of_hash(&self, hash: u64) -> Option<MemberId> {
        if self.points.is_empty() {
            return None;
        }
        let at = self.points.partition_point(|&(point, _)| point < hash);
        let (_, member) = self.points[at % self.points.len()];
        Some(member)
    }

    /// The member owning `(route, content_hash)`.
    pub fn owner(&self, route: &str, content_hash: u64) -> Option<MemberId> {
        self.owner_of_hash(key_hash(route, content_hash))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new(8);
        assert!(ring.is_empty());
        assert_eq!(ring.owner("any", 7), None);
    }

    #[test]
    fn single_member_owns_everything() {
        let ring = HashRing::with_members(1, 8);
        for hash in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(ring.owner_of_hash(hash), Some(0));
        }
    }

    #[test]
    fn insert_is_idempotent_and_remove_clears() {
        let mut ring = HashRing::with_members(3, 16);
        ring.insert(1);
        assert_eq!(ring.members(), &[0, 1, 2]);
        assert_eq!(ring.points.len(), 3 * 16);
        ring.remove(1);
        ring.remove(1);
        assert_eq!(ring.members(), &[0, 2]);
        assert_eq!(ring.points.len(), 2 * 16);
        assert!(ring
            .points
            .iter()
            .all(|&(_, member)| member == 0 || member == 2));
    }

    #[test]
    fn restart_preserves_arcs_exactly() {
        // Re-inserting the same member id reproduces the identical ring:
        // a crashed-and-restarted worker (same id, new port) keeps its arcs.
        let mut ring = HashRing::with_members(3, 32);
        let before: Vec<Option<MemberId>> =
            (0..1000u64).map(|k| ring.owner("r", k * 7919)).collect();
        ring.remove(1);
        ring.insert(1);
        let after: Vec<Option<MemberId>> =
            (0..1000u64).map(|k| ring.owner("r", k * 7919)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn route_label_participates_in_placement() {
        let ring = HashRing::with_members(4, 64);
        let spread: std::collections::HashSet<MemberId> = (0..64u64)
            .filter_map(|i| ring.owner(if i % 2 == 0 { "a" } else { "b" }, i / 2))
            .collect();
        assert!(
            spread.len() > 1,
            "two routes must not collapse to one owner"
        );
        assert_ne!(key_hash("a", 5), key_hash("b", 5));
    }
}
