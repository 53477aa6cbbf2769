//! The collective protocols every backend shares: one binomial shape, one
//! tag-sequencing scheme, one `split`.
//!
//! Bit-identical solutions across transports rest on the collectives
//! having a *fixed floating-point reduction order*: the binomial tree
//! decides who sums whose contribution and in which sequence, not message
//! arrival. There is exactly one copy of that shape, generic over
//! [`Transport`]; the simulator and the real-clock runtime both call it, so
//! a backend cannot drift out of the shape without every conformance suite
//! failing.
//!
//! Tag sequencing and communicator construction live here for the same
//! reason. [`coll_tag`] hands every collective call a fresh tag block —
//! which is what keeps successive collectives on one communicator from
//! confusing each other's messages even under duplicated or delayed
//! deliveries — [`split`] is the one `MPI_Comm_split` protocol (a backend
//! supplies only its untimed setup send and receive), and [`subgroup`] is
//! the one constructor for groups whose membership every member already
//! knows, which sends nothing.

use crate::fault::mix64;
use crate::stats::Category;
use crate::transport::{Payload, Transport};
use crate::RecvMsg;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Tags at or above this value are reserved for collectives.
pub const COLLECTIVE_TAG_BASE: u64 = 1 << 60;

/// Base tag for the next collective on communicator `comm_id`, from the
/// calling rank's per-communicator sequence numbers. Each collective call
/// gets a fresh block of four tags, so a duplicated delivery from an
/// earlier collective can never be consumed by a later one; members agree
/// because collectives are called in program order.
pub(crate) fn coll_tag(seqs: &RefCell<HashMap<u64, u64>>, comm_id: u64) -> u64 {
    let mut seqs = seqs.borrow_mut();
    let seq = seqs.entry(comm_id).or_insert(0);
    *seq += 1;
    // seq * 4 >= 4 keeps clear of the fixed split tags (BASE+1, BASE+2).
    COLLECTIVE_TAG_BASE + *seq * 4
}

/// One rank's view of a subcommunicator produced by [`split`] or
/// [`subgroup`].
pub(crate) struct SplitGroup {
    /// Id of the new communicator.
    pub id: u64,
    /// World ranks of its members, in new-rank order.
    pub members: Vec<u32>,
    /// The calling rank's rank within it.
    pub my_idx: usize,
}

/// `MPI_Comm_split` of the communicator with world-rank list `parent`, as
/// seen by its rank `me`. Members must agree on the new ids without any
/// shared ordering, so parent rank 0 gathers every `(color, key)`, takes a
/// block of `parent.len()` ids from `alloc_ids` and sends everyone the
/// full decision list, from which each member reconstructs its own group.
///
/// `send(dst, tag, payload)` and `recv(src, tag)` are the backend's untimed
/// setup operations on the *parent* communicator. All members must call
/// collectively and in the same program order.
pub(crate) fn split(
    parent: &[u32],
    me: usize,
    color: usize,
    key: usize,
    send: impl Fn(usize, u64, &Payload),
    recv: impl Fn(Option<usize>, u64) -> RecvMsg,
    alloc_ids: impl FnOnce(u64) -> u64,
) -> SplitGroup {
    let size = parent.len();
    let tag = COLLECTIVE_TAG_BASE + 1;
    if me != 0 {
        send(0, tag, &Payload::from([color as f64, key as f64]));
        return build_split_group(parent, me, &recv(Some(0), tag + 1).payload, color);
    }
    let base = alloc_ids(size as u64);
    // The decisions travel as f64 words; the id must survive the trip.
    assert!(base + (size as u64) < 1 << 53, "communicator id overflow");
    let mut flat = Vec::with_capacity(3 * size + 1);
    flat.extend([base as f64, color as f64, key as f64, 0.0]);
    for _ in 1..size {
        let m = recv(None, tag);
        flat.extend([m.payload[0], m.payload[1], m.src as f64]);
    }
    let flat: Payload = flat.into();
    for dst in 1..size {
        send(dst, tag + 1, &flat);
    }
    build_split_group(parent, me, &flat, color)
}

/// Reconstruct the caller's group from the root's decision list
/// `[base, (color, key, parent rank)...]`: the group's id is `base` plus
/// the index of its color among the sorted distinct colors.
fn build_split_group(parent: &[u32], me: usize, flat: &[f64], my_color: usize) -> SplitGroup {
    let base = flat[0] as u64;
    let mut group: Vec<(usize, usize)> = Vec::new(); // (key, parent rank)
    let mut colors_seen: Vec<usize> = Vec::new();
    for chunk in flat[1..].chunks(3) {
        let (c, k, r) = (chunk[0] as usize, chunk[1] as usize, chunk[2] as usize);
        if !colors_seen.contains(&c) {
            colors_seen.push(c);
        }
        if c == my_color {
            group.push((k, r));
        }
    }
    colors_seen.sort_unstable();
    let color_idx = colors_seen
        .iter()
        .position(|&c| c == my_color)
        .expect("own color present");
    group.sort_unstable();
    let members: Vec<u32> = group.iter().map(|&(_, pr)| parent[pr]).collect();
    let my_idx = members
        .iter()
        .position(|&w| w == parent[me])
        .expect("self in group");
    SplitGroup {
        id: base + color_idx as u64,
        members,
        my_idx,
    }
}

/// Ids of communicators built by [`subgroup`] have this bit set; ids that
/// [`split`] allocates (a world rank in bits 32.., below 2^53) and the world
/// communicator's 0 never do, so the two families cannot meet.
const SUBGROUP_ID_BIT: u64 = 1 << 63;

/// What one rank remembers of the sub-communicators it built with
/// [`subgroup`]: how many it has built on each parent, and every id it
/// derived.
#[derive(Default)]
pub(crate) struct SubgroupIds {
    calls: HashMap<u64, u64>,
    issued: HashSet<u64>,
}

/// A subcommunicator of the communicator `parent_id` (world-rank list
/// `parent`) built from what its rank `me` already knows, with no message:
/// `ranks` lists the group's members as parent ranks in new-rank order and
/// must contain `me`; every member passes the same `ranks` and `color`.
///
/// The id is a mix of `(parent_id, ordinal, color)`, where `ordinal` counts
/// this rank's `subgroup` calls on the parent; members agree on it because
/// they build their shared groups in the same program order. A message can
/// only be misrouted between two communicators that one rank holds, so each
/// rank checks every id it derives against those it derived before and
/// panics on a clash instead of running on (odds 2^-63 per pair).
pub(crate) fn subgroup(
    parent_id: u64,
    parent: &[u32],
    me: usize,
    ranks: &[usize],
    color: usize,
    ids: &RefCell<SubgroupIds>,
) -> SplitGroup {
    let my_idx = ranks
        .iter()
        .position(|&r| r == me)
        .expect("subgroup: the calling rank is a member of its own group");
    let members: Vec<u32> = ranks.iter().map(|&r| parent[r]).collect();
    debug_assert!(
        (1..members.len()).all(|i| !members[..i].contains(&members[i])),
        "subgroup: duplicate member in {ranks:?}"
    );
    let ids = &mut *ids.borrow_mut();
    let ordinal = ids.calls.entry(parent_id).or_insert(0);
    *ordinal += 1;
    let id = SUBGROUP_ID_BIT | mix64(mix64(mix64(parent_id) ^ *ordinal) ^ color as u64);
    // No `(parent, ordinal)` repeats on a rank, so a repeated id is a clash.
    assert!(
        ids.issued.insert(id),
        "subgroup: id {id:#x} (call {ordinal} on communicator {parent_id:#x}) is already in use on this rank"
    );
    SplitGroup {
        id,
        members,
        my_idx,
    }
}

/// Binomial reduce-to-rank-0 (sum) followed by a binomial broadcast back
/// down the same tree: the shared body of `allreduce_sum` and `barrier`.
///
/// Uses `tag` for the reduction leg and `tag + 1` for the broadcast leg;
/// callers reserve at least two tags per invocation.
pub fn reduce_bcast<T: Transport>(t: &T, tag: u64, data: &mut [f64], cat: Category) {
    let size = t.size();
    let me = t.rank();
    // Reduce: at distance d, odd multiples of d send to the even multiple
    // d below them, which accumulates in ascending-child order.
    let mut d = 1;
    while d < size {
        if me % (2 * d) == d {
            t.send(me - d, tag, data, cat);
            break;
        } else if me.is_multiple_of(2 * d) && me + d < size {
            let m = t.recv(Some(me + d), Some(tag), cat);
            for (a, b) in data.iter_mut().zip(m.payload.iter()) {
                *a += *b;
            }
        }
        d *= 2;
    }
    // Broadcast back down the same binomial tree, top-down.
    let mut levels = Vec::new();
    let mut d = 1;
    while d < size {
        levels.push(d);
        d *= 2;
    }
    for &d in levels.iter().rev() {
        if me.is_multiple_of(2 * d) && me + d < size {
            t.send(me + d, tag + 1, data, cat);
        } else if me % (2 * d) == d {
            let m = t.recv(Some(me - d), Some(tag + 1), cat);
            data.copy_from_slice(&m.payload);
        }
    }
}

/// Binomial broadcast of `data` from `root`: ranks are rotated so `root`
/// sits at virtual rank 0, then the tree unrolls top-down. Uses `tag`
/// only; callers reserve at least one tag per invocation.
pub fn bcast_from<T: Transport>(t: &T, root: usize, tag: u64, data: &mut [f64], cat: Category) {
    let size = t.size();
    let vrank = |r: usize| (r + size - root) % size;
    let unrot = |v: usize| (v + root) % size;
    let me = vrank(t.rank());
    let mut levels = Vec::new();
    let mut d = 1;
    while d < size {
        levels.push(d);
        d *= 2;
    }
    for &d in levels.iter().rev() {
        if me.is_multiple_of(2 * d) && me + d < size {
            t.send(unrot(me + d), tag, data, cat);
        } else if me % (2 * d) == d {
            let m = t.recv(Some(unrot(me - d)), Some(tag), cat);
            data.copy_from_slice(&m.payload);
        }
    }
}
