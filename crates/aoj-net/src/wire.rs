//! The hand-rolled wire format of the TCP backend.
//!
//! Every frame on every connection is `[u32 LE payload length][u8 kind]
//! [payload]`. Payloads are flat little-endian encodings written with the
//! `enc_*` helpers and read back with [`Dec`]; there is no schema
//! language and no reflection — each message's layout is written once,
//! here, and both endpoints link the same functions.
//!
//! Three things cross the wire:
//!
//! * **The plan** ([`Plan`]): a [`SessionBuilder`] snapshot plus a
//!   protocol version and an FNV-1a fingerprint of the encoded plan
//!   bytes. A worker rebuilds the entire operator topology from the plan
//!   and refuses to proceed on any version or fingerprint mismatch, so a
//!   stale binary can never silently join a cluster.
//! * **Operator messages** ([`encode_opmsg`]/[`decode_opmsg`]): every
//!   [`OpMsg`] variant, losslessly. `Predicate::Theta` closures are the
//!   one deliberate exception — a function pointer cannot cross a
//!   process boundary, and the codec says so loudly instead of guessing.
//! * **Control traffic**: handshakes, machine directory updates,
//!   lifecycle (provision / drain / retire), quiescence probes, gauge
//!   samples, streamed matches, and the per-worker finals bundle that
//!   carries task-level counters home when a worker exits.

use std::io::{self, Read, Write};

use aoj_core::decision::DecisionConfig;
use aoj_core::elastic::{ContractRole, ContractSpec, ElasticLayout, ExpandSpec};
use aoj_core::lifecycle::{TickSource, WindowMode, WindowSpec};
use aoj_core::mapping::{GridAssignment, GridPos, Mapping, Step};
use aoj_core::migration::MachineStepSpec;
use aoj_core::predicate::Predicate;
use aoj_core::ticket::RoutingMode;
use aoj_core::tuple::{Rel, Tuple};
use aoj_operators::driver::{BackendChoice, OperatorKind};
use aoj_operators::messages::{IngestItem, Match, OpMsg};
use aoj_operators::reshuffler::{ControlEvent, ProgressSample};
use aoj_operators::session::{KeyFilter, SessionBuilder};
use aoj_simnet::{MsgClass, SimDuration, SimTime, TaskId};

/// Protocol version; bumped on any layout change. Checked in both
/// directions during the handshake. Version 5 dropped the SHJ joiner
/// list from the finals frame: SHJ runs on the grid joiner tasks, so
/// its finals travel as [`JoinerFinal`]s.
pub const WIRE_VERSION: u8 = 5;

/// Upper bound on a single frame's payload (a corrupt length prefix must
/// not turn into a multi-gigabyte allocation).
pub const MAX_FRAME: usize = 256 << 20;

// Frame kinds. One flat namespace across all connection classes; each
// endpoint only accepts the kinds meaningful for its connection.
/// Worker → coordinator: first frame on the control connection.
pub const K_HELLO: u8 = 1;
/// Coordinator → worker: the session plan (handshake reply).
pub const K_PLAN: u8 = 2;
/// Worker → coordinator: topology rebuilt, data listener bound.
pub const K_READY: u8 = 3;
/// Coordinator → workers: machine directory update (peer up).
pub const K_MACHINE_UP: u8 = 4;
/// Coordinator → worker: quiescence probe.
pub const K_PROBE: u8 = 5;
/// Worker → coordinator: probe answer with work counters.
pub const K_PROBE_ACK: u8 = 6;
/// Worker → coordinator: an `Effect::Provision` surfaced in a handler.
pub const K_PROVISION_REQ: u8 = 7;
/// Worker → coordinator: an `Effect::Retire` surfaced in a handler.
pub const K_RETIRE_REQ: u8 = 8;
/// Coordinator → workers: close your data channels to a retiring machine.
pub const K_DRAIN_FOR: u8 = 9;
/// Worker → coordinator: channels to the retiring machine are closed.
pub const K_DRAIN_DONE: u8 = 10;
/// Coordinator → retiring worker: all peers closed; finish and exit.
pub const K_RETIRE_NOW: u8 = 11;
/// Worker → coordinator: periodic gauge sample for the session overlay.
pub const K_GAUGES: u8 = 12;
/// Coordinator → controller worker: another machine's gauges, relayed so
/// the elastic trigger sees the whole cluster.
pub const K_GAUGE_RELAY: u8 = 13;
/// Worker → coordinator: matches drained from the worker's local hub.
pub const K_MATCH_BATCH: u8 = 14;
/// Worker → coordinator: final task counters, shipped once at exit.
pub const K_FINALS: u8 = 15;
/// Coordinator → workers: the session is over; drain and exit.
pub const K_SHUTDOWN: u8 = 16;
/// Worker → coordinator: last frame before process exit.
pub const K_EXITING: u8 = 17;
/// First frame on every data-plane connection: who is dialing, and for
/// which message class.
pub const K_PREAMBLE: u8 = 18;
/// Data-plane frame: one routed [`OpMsg`] between two tasks.
pub const K_TASK_MSG: u8 = 19;
/// Data-plane / drain marker: no more frames will follow on this
/// connection (the TCP analogue of the runtime's flush token).
pub const K_EOS: u8 = 20;
/// Coordinator → worker (control): toggle live match streaming. Payload
/// is one byte, 0 = off, 1 = on. While off (the default for sessions
/// opened without a subscriber) workers count matches but never buffer
/// or ship pair identities.
pub const K_MATCH_TAP: u8 = 21;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("wire: {}", msg.into()))
}

// ---------------------------------------------------------------------------
// Framing

/// Write one `[len][kind][payload]` frame.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(bad(format!(
            "frame kind {kind} too large: {}",
            payload.len()
        )));
    }
    let mut hdr = [0u8; 5];
    hdr[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    hdr[4] = kind;
    w.write_all(&hdr)?;
    w.write_all(payload)
}

/// Read one frame, returning `(kind, payload)`.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut payload = Vec::new();
    let kind = read_frame_into(r, &mut payload)?;
    Ok((kind, payload))
}

/// Read one frame into a caller-owned payload buffer, returning the
/// frame kind. The buffer is cleared and refilled in place, so a reader
/// loop that hands the payload off between frames can recycle one
/// allocation across the whole connection.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<u8> {
    let mut hdr = [0u8; 5];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
    if len > MAX_FRAME {
        return Err(bad(format!("frame length {len} exceeds cap")));
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(hdr[4])
}

// ---------------------------------------------------------------------------
// Buffer pool

/// Largest buffer the pool will retain. A migration burst can briefly
/// inflate a frame buffer to megabytes; holding that capacity for the
/// rest of the session would be a leak wearing a cache costume.
const POOL_MAX_CAPACITY: usize = 1 << 20;

/// How many free buffers the pool keeps before dropping extras.
const POOL_MAX_FREE: usize = 64;

/// A free-list of `Vec<u8>` frame buffers, shared between the encode
/// side (machine loop staging) and the socket writers: the machine loop
/// checks out a buffer, appends framed messages into it, hands it to a
/// writer thread, and the writer returns it after the syscall. In steady
/// state no frame encode touches the allocator.
#[derive(Default)]
pub struct BufPool {
    free: std::sync::Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    /// New empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// Check out a cleared buffer (freshly allocated if the list is dry).
    pub fn get(&self) -> Vec<u8> {
        let mut buf = self.free.lock().unwrap().pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Return a buffer to the free list. Oversized or surplus buffers are
    /// dropped so the pool's footprint stays bounded.
    pub fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > POOL_MAX_CAPACITY {
            return;
        }
        let mut free = self.free.lock().unwrap();
        if free.len() < POOL_MAX_FREE {
            free.push(buf);
        }
    }
}

/// FNV-1a over the encoded plan bytes; the handshake fingerprint.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Encode helpers

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}
fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}
fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, n as u32);
}

// ---------------------------------------------------------------------------
// Decode cursor

/// A bounds-checked little-endian read cursor over one frame payload.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Start decoding `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad("truncated payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Error if any bytes remain (layouts are exact, not extensible).
    pub fn finish(&self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(bad(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }

    /// Read one byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Read a little-endian `i32`.
    pub fn i32(&mut self) -> io::Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Read a `bool` (strictly 0 or 1).
    pub fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad(format!("bad bool byte {b}"))),
        }
    }
    /// Read a `u64` narrowed to `usize`.
    pub fn usize(&mut self) -> io::Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| bad("usize overflow"))
    }
    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| bad("invalid utf-8"))
    }
    /// Read a `u32` element count, sanity-checked against the bytes that
    /// remain (each element needs at least `min_elem` bytes).
    pub fn len(&mut self, min_elem: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(bad(format!("length {n} exceeds payload")));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Small shared scalars

fn put_rel(out: &mut Vec<u8>, r: Rel) {
    put_u8(out, r.index() as u8);
}
fn dec_rel(d: &mut Dec) -> io::Result<Rel> {
    match d.u8()? {
        0 => Ok(Rel::R),
        1 => Ok(Rel::S),
        b => Err(bad(format!("bad Rel byte {b}"))),
    }
}

fn put_opt_rel(out: &mut Vec<u8>, r: Option<Rel>) {
    match r {
        None => put_u8(out, 0),
        Some(Rel::R) => put_u8(out, 1),
        Some(Rel::S) => put_u8(out, 2),
    }
}
fn dec_opt_rel(d: &mut Dec) -> io::Result<Option<Rel>> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(Rel::R)),
        2 => Ok(Some(Rel::S)),
        b => Err(bad(format!("bad Option<Rel> byte {b}"))),
    }
}

fn put_class(out: &mut Vec<u8>, c: MsgClass) {
    let b = match c {
        MsgClass::Control => 0u8,
        MsgClass::Data => 1,
        MsgClass::Migration => 2,
    };
    put_u8(out, b);
}
fn dec_class(d: &mut Dec) -> io::Result<MsgClass> {
    match d.u8()? {
        0 => Ok(MsgClass::Control),
        1 => Ok(MsgClass::Data),
        2 => Ok(MsgClass::Migration),
        b => Err(bad(format!("bad MsgClass byte {b}"))),
    }
}

fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_u64(out, t.seq);
    put_rel(out, t.rel);
    put_i64(out, t.key);
    put_i32(out, t.aux);
    put_u32(out, t.bytes);
    put_u64(out, t.ticket);
}
fn dec_tuple(d: &mut Dec) -> io::Result<Tuple> {
    Ok(Tuple {
        seq: d.u64()?,
        rel: dec_rel(d)?,
        key: d.i64()?,
        aux: d.i32()?,
        bytes: d.u32()?,
        ticket: d.u64()?,
    })
}

fn put_item(out: &mut Vec<u8>, it: &IngestItem) {
    put_rel(out, it.rel);
    put_i64(out, it.key);
    put_i32(out, it.aux);
    put_u32(out, it.bytes);
    put_u64(out, it.seq);
}
fn dec_item(d: &mut Dec) -> io::Result<IngestItem> {
    Ok(IngestItem {
        rel: dec_rel(d)?,
        key: d.i64()?,
        aux: d.i32()?,
        bytes: d.u32()?,
        seq: d.u64()?,
    })
}

fn put_match(out: &mut Vec<u8>, m: &Match) {
    put_u64(out, m.r_seq);
    put_u64(out, m.s_seq);
    put_i64(out, m.r_key);
    put_i64(out, m.s_key);
}
fn dec_match(d: &mut Dec) -> io::Result<Match> {
    Ok(Match {
        r_seq: d.u64()?,
        s_seq: d.u64()?,
        r_key: d.i64()?,
        s_key: d.i64()?,
    })
}

fn put_pos(out: &mut Vec<u8>, p: GridPos) {
    put_u32(out, p.row);
    put_u32(out, p.col);
}
fn dec_pos(d: &mut Dec) -> io::Result<GridPos> {
    Ok(GridPos {
        row: d.u32()?,
        col: d.u32()?,
    })
}

fn put_mapping(out: &mut Vec<u8>, m: Mapping) {
    put_u32(out, m.n);
    put_u32(out, m.m);
}
fn dec_mapping(d: &mut Dec) -> io::Result<Mapping> {
    let (n, m) = (d.u32()?, d.u32()?);
    if !n.is_power_of_two() || !m.is_power_of_two() {
        return Err(bad(format!("mapping ({n},{m}) not powers of two")));
    }
    Ok(Mapping::new(n, m))
}

fn put_step(out: &mut Vec<u8>, s: Step) {
    put_u8(out, matches!(s, Step::HalveCols) as u8);
}
fn dec_step(d: &mut Dec) -> io::Result<Step> {
    match d.u8()? {
        0 => Ok(Step::HalveRows),
        1 => Ok(Step::HalveCols),
        b => Err(bad(format!("bad Step byte {b}"))),
    }
}

fn put_sim_time(out: &mut Vec<u8>, t: SimTime) {
    put_u64(out, t.as_micros());
}
fn dec_sim_time(d: &mut Dec) -> io::Result<SimTime> {
    Ok(SimTime(d.u64()?))
}

fn put_task(out: &mut Vec<u8>, t: TaskId) {
    put_usize(out, t.index());
}
fn dec_task(d: &mut Dec) -> io::Result<TaskId> {
    Ok(TaskId(d.usize()?))
}

fn put_step_spec(out: &mut Vec<u8>, s: &MachineStepSpec) {
    put_usize(out, s.machine);
    put_pos(out, s.old_pos);
    put_pos(out, s.new_pos);
    put_usize(out, s.partner);
    put_rel(out, s.exchange_rel);
    put_rel(out, s.refine_rel);
    put_u32(out, s.keep_bit);
    put_u32(out, s.refine_parts_before);
}
fn dec_step_spec(d: &mut Dec) -> io::Result<MachineStepSpec> {
    Ok(MachineStepSpec {
        machine: d.usize()?,
        old_pos: dec_pos(d)?,
        new_pos: dec_pos(d)?,
        partner: d.usize()?,
        exchange_rel: dec_rel(d)?,
        refine_rel: dec_rel(d)?,
        keep_bit: d.u32()?,
        refine_parts_before: d.u32()?,
    })
}

fn put_expand_spec(out: &mut Vec<u8>, s: &ExpandSpec) {
    put_usize(out, s.machine);
    put_pos(out, s.old_pos);
    for c in s.children {
        put_usize(out, c);
    }
    put_u32(out, s.n_before);
    put_u32(out, s.m_before);
}
fn dec_expand_spec(d: &mut Dec) -> io::Result<ExpandSpec> {
    Ok(ExpandSpec {
        machine: d.usize()?,
        old_pos: dec_pos(d)?,
        children: [d.usize()?, d.usize()?, d.usize()?],
        n_before: d.u32()?,
        m_before: d.u32()?,
    })
}

fn put_contract_spec(out: &mut Vec<u8>, s: &ContractSpec) {
    put_usize(out, s.machine);
    match &s.role {
        ContractRole::Survive => put_u8(out, 0),
        ContractRole::Retire {
            survivor,
            forward_rel,
        } => {
            put_u8(out, 1);
            put_usize(out, *survivor);
            put_opt_rel(out, *forward_rel);
        }
    }
}
fn dec_contract_spec(d: &mut Dec) -> io::Result<ContractSpec> {
    let machine = d.usize()?;
    let role = match d.u8()? {
        0 => ContractRole::Survive,
        1 => ContractRole::Retire {
            survivor: d.usize()?,
            forward_rel: dec_opt_rel(d)?,
        },
        b => return Err(bad(format!("bad ContractRole byte {b}"))),
    };
    Ok(ContractSpec { machine, role })
}

fn put_assignment(out: &mut Vec<u8>, a: &GridAssignment) {
    put_mapping(out, a.mapping());
    put_len(out, a.pos_slice().len());
    for &p in a.pos_slice() {
        put_pos(out, p);
    }
    let machines: Vec<usize> = a.machines().collect();
    put_len(out, machines.len());
    for m in machines {
        put_u32(out, m as u32);
    }
}
fn dec_assignment(d: &mut Dec) -> io::Result<GridAssignment> {
    let mapping = dec_mapping(d)?;
    let np = d.len(8)?;
    let mut pos = Vec::with_capacity(np);
    for _ in 0..np {
        pos.push(dec_pos(d)?);
    }
    let nm = d.len(4)?;
    let mut machine = Vec::with_capacity(nm);
    for _ in 0..nm {
        machine.push(d.u32()?);
    }
    GridAssignment::from_parts(mapping, pos, machine).map_err(bad)
}

fn put_layout(out: &mut Vec<u8>, l: &ElasticLayout) {
    put_usize(out, l.high_water());
    put_len(out, l.dormant().len());
    for &m in l.dormant() {
        put_usize(out, m);
    }
}
fn dec_layout(d: &mut Dec) -> io::Result<ElasticLayout> {
    let next_fresh = d.usize()?;
    let n = d.len(8)?;
    let mut dormant = Vec::with_capacity(n);
    for _ in 0..n {
        dormant.push(d.usize()?);
    }
    Ok(ElasticLayout::from_parts(next_fresh, dormant))
}

// ---------------------------------------------------------------------------
// OpMsg

/// Encode one [`OpMsg`] into `out` (variant tag byte + fields).
pub fn encode_opmsg(msg: &OpMsg, out: &mut Vec<u8>) {
    match msg {
        OpMsg::IngestBatch { items } => {
            put_u8(out, 0);
            put_len(out, items.len());
            for it in items {
                put_item(out, it);
            }
        }
        OpMsg::IngestBounced { items } => {
            put_u8(out, 1);
            put_len(out, items.len());
            for it in items {
                put_item(out, it);
            }
        }
        OpMsg::DataBatch {
            tag,
            store,
            tuples,
            arrived,
        } => {
            put_u8(out, 2);
            put_u32(out, *tag);
            put_bool(out, *store);
            put_len(out, tuples.len());
            for t in tuples {
                put_tuple(out, t);
            }
            put_len(out, arrived.len());
            for &a in arrived {
                put_sim_time(out, a);
            }
        }
        OpMsg::MappingChange { new_epoch, step } => {
            put_u8(out, 3);
            put_u32(out, *new_epoch);
            put_step(out, *step);
        }
        OpMsg::MigrationComplete { epoch } => {
            put_u8(out, 4);
            put_u32(out, *epoch);
        }
        OpMsg::Signal {
            from_reshuffler,
            new_epoch,
            expected_signals,
            spec,
        } => {
            put_u8(out, 5);
            put_usize(out, *from_reshuffler);
            put_u32(out, *new_epoch);
            put_u32(out, *expected_signals);
            put_step_spec(out, spec);
        }
        OpMsg::ExpandChange { new_epoch } => {
            put_u8(out, 6);
            put_u32(out, *new_epoch);
        }
        OpMsg::ExpandSignal {
            from_reshuffler,
            new_epoch,
            expected_signals,
            spec,
        } => {
            put_u8(out, 7);
            put_usize(out, *from_reshuffler);
            put_u32(out, *new_epoch);
            put_u32(out, *expected_signals);
            put_expand_spec(out, spec);
        }
        OpMsg::ContractChange { new_epoch } => {
            put_u8(out, 8);
            put_u32(out, *new_epoch);
        }
        OpMsg::ContractSignal {
            from_reshuffler,
            new_epoch,
            expected_signals,
            spec,
        } => {
            put_u8(out, 9);
            put_usize(out, *from_reshuffler);
            put_u32(out, *new_epoch);
            put_u32(out, *expected_signals);
            put_contract_spec(out, spec);
        }
        OpMsg::Activate {
            epoch,
            assign,
            layout,
        } => {
            put_u8(out, 10);
            put_u32(out, *epoch);
            put_assignment(out, assign);
            put_layout(out, layout);
        }
        OpMsg::ExpandDone { epoch } => {
            put_u8(out, 11);
            put_u32(out, *epoch);
        }
        OpMsg::SourceGrow { reshufflers } => {
            put_u8(out, 12);
            put_len(out, reshufflers.len());
            for &t in reshufflers {
                put_task(out, t);
            }
        }
        OpMsg::SourceShrink { reshufflers } => {
            put_u8(out, 13);
            put_len(out, reshufflers.len());
            for &t in reshufflers {
                put_task(out, t);
            }
        }
        OpMsg::MigBatch { tuples } => {
            put_u8(out, 14);
            put_len(out, tuples.len());
            for t in tuples {
                put_tuple(out, t);
            }
        }
        OpMsg::MigDone => put_u8(out, 15),
        OpMsg::Ack { joiner, epoch } => {
            put_u8(out, 16);
            put_usize(out, *joiner);
            put_u32(out, *epoch);
        }
        OpMsg::RoutedCopies { n, tuples } => {
            put_u8(out, 17);
            put_u32(out, *n);
            put_u32(out, *tuples);
        }
        OpMsg::ProcessedCopies { n } => {
            put_u8(out, 18);
            put_u32(out, *n);
        }
    }
}

/// Decode one [`OpMsg`] (the inverse of [`encode_opmsg`]).
pub fn decode_opmsg(d: &mut Dec) -> io::Result<OpMsg> {
    let tag = d.u8()?;
    Ok(match tag {
        0 | 1 => {
            let n = d.len(25)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(dec_item(d)?);
            }
            if tag == 0 {
                OpMsg::IngestBatch { items }
            } else {
                OpMsg::IngestBounced { items }
            }
        }
        2 => {
            let tag = d.u32()?;
            let store = d.bool()?;
            let nt = d.len(33)?;
            let mut tuples = Vec::with_capacity(nt);
            for _ in 0..nt {
                tuples.push(dec_tuple(d)?);
            }
            let na = d.len(8)?;
            if na != nt {
                return Err(bad("DataBatch arrived/tuples length mismatch"));
            }
            let mut arrived = Vec::with_capacity(na);
            for _ in 0..na {
                arrived.push(dec_sim_time(d)?);
            }
            OpMsg::DataBatch {
                tag,
                store,
                tuples,
                arrived,
            }
        }
        3 => OpMsg::MappingChange {
            new_epoch: d.u32()?,
            step: dec_step(d)?,
        },
        4 => OpMsg::MigrationComplete { epoch: d.u32()? },
        5 => OpMsg::Signal {
            from_reshuffler: d.usize()?,
            new_epoch: d.u32()?,
            expected_signals: d.u32()?,
            spec: dec_step_spec(d)?,
        },
        6 => OpMsg::ExpandChange {
            new_epoch: d.u32()?,
        },
        7 => OpMsg::ExpandSignal {
            from_reshuffler: d.usize()?,
            new_epoch: d.u32()?,
            expected_signals: d.u32()?,
            spec: dec_expand_spec(d)?,
        },
        8 => OpMsg::ContractChange {
            new_epoch: d.u32()?,
        },
        9 => OpMsg::ContractSignal {
            from_reshuffler: d.usize()?,
            new_epoch: d.u32()?,
            expected_signals: d.u32()?,
            spec: dec_contract_spec(d)?,
        },
        10 => OpMsg::Activate {
            epoch: d.u32()?,
            assign: dec_assignment(d)?,
            layout: dec_layout(d)?,
        },
        11 => OpMsg::ExpandDone { epoch: d.u32()? },
        12 | 13 => {
            let n = d.len(8)?;
            let mut reshufflers = Vec::with_capacity(n);
            for _ in 0..n {
                reshufflers.push(dec_task(d)?);
            }
            if tag == 12 {
                OpMsg::SourceGrow { reshufflers }
            } else {
                OpMsg::SourceShrink { reshufflers }
            }
        }
        14 => {
            let n = d.len(33)?;
            let mut tuples = Vec::with_capacity(n);
            for _ in 0..n {
                tuples.push(dec_tuple(d)?);
            }
            OpMsg::MigBatch { tuples }
        }
        15 => OpMsg::MigDone,
        16 => OpMsg::Ack {
            joiner: d.usize()?,
            epoch: d.u32()?,
        },
        17 => OpMsg::RoutedCopies {
            n: d.u32()?,
            tuples: d.u32()?,
        },
        18 => OpMsg::ProcessedCopies { n: d.u32()? },
        b => return Err(bad(format!("bad OpMsg tag {b}"))),
    })
}

/// Encode an [`OpMsg`] into a fresh buffer. `OpMsg` has no `PartialEq`
/// (data batches are meant to be compared by effect, not identity), so
/// round-trip tests compare these canonical bytes instead.
pub fn opmsg_to_bytes(msg: &OpMsg) -> Vec<u8> {
    let mut out = Vec::new();
    encode_opmsg(msg, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Plan (SessionBuilder)

/// Encode a [`SessionBuilder`] field for field.
///
/// # Panics
///
/// On [`Predicate::Theta`] — an arbitrary closure cannot cross a process
/// boundary. Every named predicate the paper evaluates round-trips.
pub fn encode_builder(b: &SessionBuilder) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, b.j);
    put_u8(
        &mut out,
        match b.kind {
            OperatorKind::Dynamic => 0,
            OperatorKind::StaticMid => 1,
            OperatorKind::StaticOpt => 2,
            OperatorKind::Shj => 3,
        },
    );
    match &b.predicate {
        Predicate::Equi => put_u8(&mut out, 0),
        Predicate::Band { width } => {
            put_u8(&mut out, 1);
            put_i64(&mut out, *width);
        }
        Predicate::NotEqual => put_u8(&mut out, 2),
        Predicate::LessThan => put_u8(&mut out, 3),
        Predicate::CrossProduct => put_u8(&mut out, 4),
        Predicate::Theta(_) => {
            panic!("Predicate::Theta carries an arbitrary closure and cannot cross a process boundary; use a named predicate on the TCP backend")
        }
    }
    put_u64(&mut out, b.seed);
    put_str(&mut out, &b.workload);
    match b.oracle_mapping {
        None => put_u8(&mut out, 0),
        Some(m) => {
            put_u8(&mut out, 1);
            put_mapping(&mut out, m);
        }
    }
    // Source section.
    put_u32(&mut out, b.source.pacing.burst);
    put_u64(&mut out, b.source.pacing.interval.as_micros());
    put_u64(&mut out, b.source.window_copies);
    put_usize(&mut out, b.source.queue_tuples);
    put_u64(&mut out, b.source.idle_poll_us);
    // Data plane section.
    put_usize(&mut out, b.data_plane.batch_tuples);
    put_u64(&mut out, b.data_plane.batch_max_delay_us);
    put_u64(&mut out, b.data_plane.ram_budget);
    put_u64(&mut out, b.data_plane.spill_penalty);
    let c = &b.data_plane.cost;
    for v in [
        c.recv_overhead_us,
        c.store_us,
        c.probe_us,
        c.per_candidate_us_hundredths,
        c.per_match_us_hundredths,
        c.spill_penalty,
        c.control_us,
    ] {
        put_u64(&mut out, v);
    }
    let n = &b.data_plane.network;
    for v in [
        n.latency_us,
        n.bytes_per_us,
        n.per_message_overhead_bytes,
        n.per_message_us,
    ] {
        put_u64(&mut out, v);
    }
    // Elasticity section.
    put_u32(&mut out, b.elasticity.decision.epsilon_num);
    put_u32(&mut out, b.elasticity.decision.epsilon_den);
    put_u64(&mut out, b.elasticity.decision.min_total);
    match &b.elasticity.elastic {
        None => put_u8(&mut out, 0),
        Some(e) => {
            put_u8(&mut out, 1);
            put_u64(&mut out, e.capacity_bytes);
            put_u32(&mut out, e.max_expansions);
            put_u64(&mut out, e.contract_below_bytes);
            put_u32(&mut out, e.max_contractions);
            put_u64(&mut out, e.contract_holdoff_tuples);
            put_bool(&mut out, e.drain_driven);
            put_u64(&mut out, e.skew_expand_ratio.to_bits());
        }
    }
    put_bool(&mut out, b.elasticity.blocking_migrations);
    // Lifecycle section.
    match &b.lifecycle.window {
        None => put_u8(&mut out, 0),
        Some(w) => {
            put_u8(&mut out, 1);
            put_u8(&mut out, matches!(w.mode, WindowMode::Time) as u8);
            put_u64(&mut out, w.span);
            put_u32(&mut out, w.sub_windows);
            put_u8(&mut out, matches!(w.ticks, TickSource::AuxEventTime) as u8);
        }
    }
    // Backend section.
    put_u8(
        &mut out,
        match b.backend.choice {
            BackendChoice::Sim => 0,
            BackendChoice::Threaded => 1,
            BackendChoice::Tcp => 2,
        },
    );
    put_u64(&mut out, b.backend.sample_every);
    put_bool(&mut out, b.backend.collect_matches);
    put_usize(&mut out, b.backend.match_buffer);
    put_bool(&mut out, b.backend.track_competitive);
    // Skew section.
    put_u8(
        &mut out,
        match b.skew.routing {
            RoutingMode::Random => 0,
            RoutingMode::Keyed => 1,
            RoutingMode::KeyedHotSplit => 2,
        },
    );
    put_usize(&mut out, b.skew.sketch.keys);
    put_usize(&mut out, b.skew.sketch.centroids);
    put_u32(&mut out, b.skew.sketch.hot_num);
    put_u32(&mut out, b.skew.sketch.hot_den);
    put_u64(&mut out, b.skew.sketch.min_total);
    put_u64(&mut out, b.skew.decision_gate_ratio.to_bits());
    put_u64(&mut out, b.skew.publish_every);
    out
}

/// Decode the builder a worker rebuilds its topology from.
pub fn decode_builder(bytes: &[u8]) -> io::Result<SessionBuilder> {
    let d = &mut Dec::new(bytes);
    let j = d.u32()?;
    let kind = match d.u8()? {
        0 => OperatorKind::Dynamic,
        1 => OperatorKind::StaticMid,
        2 => OperatorKind::StaticOpt,
        3 => OperatorKind::Shj,
        b => return Err(bad(format!("bad OperatorKind byte {b}"))),
    };
    let mut b = SessionBuilder::new(j, kind);
    b.predicate = match d.u8()? {
        0 => Predicate::Equi,
        1 => Predicate::Band { width: d.i64()? },
        2 => Predicate::NotEqual,
        3 => Predicate::LessThan,
        4 => Predicate::CrossProduct,
        t => return Err(bad(format!("bad Predicate tag {t}"))),
    };
    b.seed = d.u64()?;
    b.workload = d.str()?;
    b.oracle_mapping = match d.u8()? {
        0 => None,
        1 => Some(dec_mapping(d)?),
        t => return Err(bad(format!("bad oracle_mapping tag {t}"))),
    };
    b.source.pacing.burst = d.u32()?;
    b.source.pacing.interval = SimDuration::from_micros(d.u64()?);
    b.source.window_copies = d.u64()?;
    b.source.queue_tuples = d.usize()?;
    b.source.idle_poll_us = d.u64()?;
    b.data_plane.batch_tuples = d.usize()?;
    b.data_plane.batch_max_delay_us = d.u64()?;
    b.data_plane.ram_budget = d.u64()?;
    b.data_plane.spill_penalty = d.u64()?;
    b.data_plane.cost = aoj_simnet::CostModel {
        recv_overhead_us: d.u64()?,
        store_us: d.u64()?,
        probe_us: d.u64()?,
        per_candidate_us_hundredths: d.u64()?,
        per_match_us_hundredths: d.u64()?,
        spill_penalty: d.u64()?,
        control_us: d.u64()?,
    };
    b.data_plane.network = aoj_simnet::NetworkConfig {
        latency_us: d.u64()?,
        bytes_per_us: d.u64()?,
        per_message_overhead_bytes: d.u64()?,
        per_message_us: d.u64()?,
    };
    b.elasticity.decision = DecisionConfig {
        epsilon_num: d.u32()?,
        epsilon_den: d.u32()?,
        min_total: d.u64()?,
    };
    b.elasticity.elastic = match d.u8()? {
        0 => None,
        1 => Some(aoj_operators::ElasticConfig {
            capacity_bytes: d.u64()?,
            max_expansions: d.u32()?,
            contract_below_bytes: d.u64()?,
            max_contractions: d.u32()?,
            contract_holdoff_tuples: d.u64()?,
            drain_driven: d.bool()?,
            skew_expand_ratio: f64::from_bits(d.u64()?),
        }),
        t => return Err(bad(format!("bad elastic tag {t}"))),
    };
    b.elasticity.blocking_migrations = d.bool()?;
    b.lifecycle.window = match d.u8()? {
        0 => None,
        1 => Some(WindowSpec {
            mode: if d.u8()? == 1 {
                WindowMode::Time
            } else {
                WindowMode::Count
            },
            span: d.u64()?,
            sub_windows: d.u32()?,
            ticks: if d.u8()? == 1 {
                TickSource::AuxEventTime
            } else {
                TickSource::Arrival
            },
        }),
        t => return Err(bad(format!("bad window tag {t}"))),
    };
    b.backend.choice = match d.u8()? {
        0 => BackendChoice::Sim,
        1 => BackendChoice::Threaded,
        2 => BackendChoice::Tcp,
        t => return Err(bad(format!("bad BackendChoice byte {t}"))),
    };
    b.backend.sample_every = d.u64()?;
    b.backend.collect_matches = d.bool()?;
    b.backend.match_buffer = d.usize()?;
    b.backend.track_competitive = d.bool()?;
    b.skew.routing = match d.u8()? {
        0 => RoutingMode::Random,
        1 => RoutingMode::Keyed,
        2 => RoutingMode::KeyedHotSplit,
        t => return Err(bad(format!("bad RoutingMode byte {t}"))),
    };
    b.skew.sketch.keys = d.usize()?;
    b.skew.sketch.centroids = d.usize()?;
    b.skew.sketch.hot_num = d.u32()?;
    b.skew.sketch.hot_den = d.u32()?;
    b.skew.sketch.min_total = d.u64()?;
    b.skew.decision_gate_ratio = f64::from_bits(d.u64()?);
    b.skew.publish_every = d.u64()?;
    d.finish()?;
    Ok(b)
}

// ---------------------------------------------------------------------------
// Control-plane payloads

/// Worker → coordinator: first frame on the control connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// The worker binary's [`WIRE_VERSION`].
    pub version: u8,
    /// Machine index this process hosts.
    pub machine: u64,
    /// Incarnation: 0 for the first process on this machine slot,
    /// incremented each time a retired slot is re-provisioned.
    pub gen: u32,
}

impl Hello {
    /// Encode.
    pub fn enc(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u8(&mut out, self.version);
        put_u64(&mut out, self.machine);
        put_u32(&mut out, self.gen);
        out
    }
    /// Decode.
    pub fn dec(bytes: &[u8]) -> io::Result<Hello> {
        let d = &mut Dec::new(bytes);
        let h = Hello {
            version: d.u8()?,
            machine: d.u64()?,
            gen: d.u32()?,
        };
        d.finish()?;
        Ok(h)
    }
}

/// Coordinator → worker: the session plan.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Coordinator's [`WIRE_VERSION`].
    pub version: u8,
    /// [`fingerprint`] of `builder` — echoed back in [`Ready`].
    pub fingerprint: u64,
    /// Total machine count excluding the coordinator's source machine.
    pub machines: u64,
    /// The coordinator-hosted source machine index.
    pub source_machine: u64,
    /// Shared clock anchor: the coordinator's session clock, sampled at
    /// handshake time, in microseconds. Workers offset their own
    /// monotonic clock by this so timestamps are comparable.
    pub clock_anchor_us: u64,
    /// Whether workers should buffer and ship match identities from the
    /// start (a subscriber or collector was attached at session open).
    /// Toggled live by [`K_MATCH_TAP`].
    pub stream_matches: bool,
    /// [`encode_builder`] bytes.
    pub builder: Vec<u8>,
    /// Checkpoint snapshot bytes (`Checkpoint::to_bytes`) every worker
    /// restores its state from before going [`Ready`]. Empty for a
    /// fresh session.
    pub restore: Vec<u8>,
}

impl Plan {
    /// Encode.
    pub fn enc(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u8(&mut out, self.version);
        put_u64(&mut out, self.fingerprint);
        put_u64(&mut out, self.machines);
        put_u64(&mut out, self.source_machine);
        put_u64(&mut out, self.clock_anchor_us);
        put_bool(&mut out, self.stream_matches);
        put_len(&mut out, self.builder.len());
        out.extend_from_slice(&self.builder);
        put_len(&mut out, self.restore.len());
        out.extend_from_slice(&self.restore);
        out
    }
    /// Decode.
    pub fn dec(bytes: &[u8]) -> io::Result<Plan> {
        let d = &mut Dec::new(bytes);
        let version = d.u8()?;
        let fingerprint = d.u64()?;
        let machines = d.u64()?;
        let source_machine = d.u64()?;
        let clock_anchor_us = d.u64()?;
        let stream_matches = d.bool()?;
        let n = d.len(1)?;
        let builder = d.take(n)?.to_vec();
        let n = d.len(1)?;
        let restore = d.take(n)?.to_vec();
        d.finish()?;
        Ok(Plan {
            version,
            fingerprint,
            machines,
            source_machine,
            clock_anchor_us,
            stream_matches,
            builder,
            restore,
        })
    }
}

/// Worker → coordinator: topology rebuilt, data listener bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ready {
    /// Machine index.
    pub machine: u64,
    /// Incarnation.
    pub gen: u32,
    /// Echo of the plan fingerprint the worker verified.
    pub fingerprint: u64,
    /// Loopback port of the worker's data-plane listener.
    pub data_port: u16,
}

impl Ready {
    /// Encode.
    pub fn enc(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.machine);
        put_u32(&mut out, self.gen);
        put_u64(&mut out, self.fingerprint);
        put_u16(&mut out, self.data_port);
        out
    }
    /// Decode.
    pub fn dec(bytes: &[u8]) -> io::Result<Ready> {
        let d = &mut Dec::new(bytes);
        let r = Ready {
            machine: d.u64()?,
            gen: d.u32()?,
            fingerprint: d.u64()?,
            data_port: d.u16()?,
        };
        d.finish()?;
        Ok(r)
    }
}

/// Coordinator → workers: a machine's data listener is reachable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineUp {
    /// Machine index.
    pub machine: u64,
    /// Incarnation.
    pub gen: u32,
    /// Loopback port of that machine's data-plane listener.
    pub port: u16,
}

impl MachineUp {
    /// Encode.
    pub fn enc(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.machine);
        put_u32(&mut out, self.gen);
        put_u16(&mut out, self.port);
        out
    }
    /// Decode.
    pub fn dec(bytes: &[u8]) -> io::Result<MachineUp> {
        let d = &mut Dec::new(bytes);
        let m = MachineUp {
            machine: d.u64()?,
            gen: d.u32()?,
            port: d.u16()?,
        };
        d.finish()?;
        Ok(m)
    }
}

/// Worker → coordinator: answer to a quiescence probe (kind
/// [`K_PROBE_ACK`]; the probe itself carries only the nonce).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeAck {
    /// Echo of the probe nonce.
    pub nonce: u64,
    /// Work items this node has created (sends + timers).
    pub created: u64,
    /// Work items this node has finished processing.
    pub finished: u64,
}

impl ProbeAck {
    /// Encode.
    pub fn enc(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.nonce);
        put_u64(&mut out, self.created);
        put_u64(&mut out, self.finished);
        out
    }
    /// Decode.
    pub fn dec(bytes: &[u8]) -> io::Result<ProbeAck> {
        let d = &mut Dec::new(bytes);
        let p = ProbeAck {
            nonce: d.u64()?,
            created: d.u64()?,
            finished: d.u64()?,
        };
        d.finish()?;
        Ok(p)
    }
}

/// A payload that is just one machine index ([`K_PROVISION_REQ`],
/// [`K_RETIRE_REQ`], [`K_DRAIN_FOR`]) — or one nonce ([`K_PROBE`]).
/// Returns the bytes by value; `&enc_u64(x)` coerces to the `&[u8]`
/// every frame writer takes, with no heap round-trip.
pub fn enc_u64(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

/// Decode a bare `u64` payload.
pub fn dec_u64(bytes: &[u8]) -> io::Result<u64> {
    let d = &mut Dec::new(bytes);
    let v = d.u64()?;
    d.finish()?;
    Ok(v)
}

/// Worker → coordinator: data channels toward a retiring machine are
/// closed ([`K_DRAIN_DONE`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainDone {
    /// The retiring machine.
    pub machine: u64,
    /// How many per-class connections this node closed toward it (each
    /// carried a trailing [`K_EOS`] the retiree must count).
    pub closed: u32,
}

impl DrainDone {
    /// Encode.
    pub fn enc(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.machine);
        put_u32(&mut out, self.closed);
        out
    }
    /// Decode.
    pub fn dec(bytes: &[u8]) -> io::Result<DrainDone> {
        let d = &mut Dec::new(bytes);
        let v = DrainDone {
            machine: d.u64()?,
            closed: d.u32()?,
        };
        d.finish()?;
        Ok(v)
    }
}

/// Worker → coordinator: a periodic (or final) gauge sample for this
/// worker's machine ([`K_GAUGES`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSample {
    /// The reporting machine.
    pub machine: u64,
    /// Stored operator-state bytes.
    pub stored: u64,
    /// Cumulative evicted bytes (windowed expiry).
    pub evicted: u64,
    /// Stored tuple count (window occupancy).
    pub occupancy: u64,
    /// Data items processed by this worker so far (absolute, per-worker;
    /// the coordinator sums across workers).
    pub data_processed: u64,
    /// The worker's merged skew sketch as
    /// [`SkewSketch::to_parts`](aoj_core::sketch::SkewSketch::to_parts)
    /// words (empty until the worker's reshufflers first publish). The
    /// coordinator folds one board slot per worker from these.
    pub skew_parts: Vec<u64>,
}

impl GaugeSample {
    /// Encode.
    pub fn enc(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.enc_into(&mut out);
        out
    }
    /// Append the encoding to a caller-owned buffer (cleared first), so a
    /// periodic stats loop reuses one allocation across samples.
    pub fn enc_into(&self, out: &mut Vec<u8>) {
        out.clear();
        put_u64(out, self.machine);
        put_u64(out, self.stored);
        put_u64(out, self.evicted);
        put_u64(out, self.occupancy);
        put_u64(out, self.data_processed);
        put_usize(out, self.skew_parts.len());
        for &w in &self.skew_parts {
            put_u64(out, w);
        }
    }
    /// Decode.
    pub fn dec(bytes: &[u8]) -> io::Result<GaugeSample> {
        let d = &mut Dec::new(bytes);
        let g = GaugeSample {
            machine: d.u64()?,
            stored: d.u64()?,
            evicted: d.u64()?,
            occupancy: d.u64()?,
            data_processed: d.u64()?,
            skew_parts: {
                let n = d.usize()?;
                let mut v = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    v.push(d.u64()?);
                }
                v
            },
        };
        d.finish()?;
        Ok(g)
    }
}

/// Encode a [`K_MATCH_TAP`] payload: whether workers should stream
/// matches at all, plus the union of the session's subscriber
/// [`KeyFilter`]s (empty with `on` = ship everything). Pairs failing
/// every filter are dropped at the joiner's emit path, before they ever
/// touch the wire.
pub fn encode_match_tap(on: bool, filters: &[KeyFilter]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u8(&mut out, on as u8);
    put_u32(&mut out, filters.len() as u32);
    for f in filters {
        match *f {
            KeyFilter::All => {
                put_u8(&mut out, 0);
                put_i64(&mut out, 0);
                put_i64(&mut out, 0);
            }
            KeyFilter::Range { lo, hi } => {
                put_u8(&mut out, 1);
                put_i64(&mut out, lo);
                put_i64(&mut out, hi);
            }
        }
    }
    out
}

/// Decode a [`K_MATCH_TAP`] payload.
pub fn decode_match_tap(bytes: &[u8]) -> io::Result<(bool, Vec<KeyFilter>)> {
    let d = &mut Dec::new(bytes);
    let on = d.u8()? != 0;
    let n = d.u32()? as usize;
    let mut filters = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let tag = d.u8()?;
        let lo = d.i64()?;
        let hi = d.i64()?;
        filters.push(match tag {
            0 => KeyFilter::All,
            1 => KeyFilter::Range { lo, hi },
            t => return Err(bad(format!("bad KeyFilter tag {t}"))),
        });
    }
    d.finish()?;
    Ok((on, filters))
}

/// Coordinator → controller worker: another machine's gauges
/// ([`K_GAUGE_RELAY`]), applied to the controller's local overlay so the
/// elastic trigger reads cluster-wide state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeRelay {
    /// The machine the gauges describe.
    pub origin: u64,
    /// Stored bytes.
    pub stored: u64,
    /// Cumulative evicted bytes.
    pub evicted: u64,
    /// Window occupancy in tuples.
    pub occupancy: u64,
}

impl GaugeRelay {
    /// Encode.
    pub fn enc(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.origin);
        put_u64(&mut out, self.stored);
        put_u64(&mut out, self.evicted);
        put_u64(&mut out, self.occupancy);
        out
    }
    /// Decode.
    pub fn dec(bytes: &[u8]) -> io::Result<GaugeRelay> {
        let d = &mut Dec::new(bytes);
        let g = GaugeRelay {
            origin: d.u64()?,
            stored: d.u64()?,
            evicted: d.u64()?,
            occupancy: d.u64()?,
        };
        d.finish()?;
        Ok(g)
    }
}

/// Worker → coordinator: last frame before exit ([`K_EXITING`]). Carries
/// the worker's final work counters so the quiescence check can keep
/// counting retired machines' contributions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exiting {
    /// Machine index.
    pub machine: u64,
    /// Incarnation.
    pub gen: u32,
    /// Final created-work count.
    pub created: u64,
    /// Final finished-work count.
    pub finished: u64,
    /// Connections closed by the exit-time flush, as `(destination
    /// machine, count)`. The coordinator folds these into its running
    /// per-destination end-of-stream tally, so a *later* retirement
    /// barrier toward one of those destinations expects the markers this
    /// exit already delivered.
    pub closed: Vec<(u64, u32)>,
}

impl Exiting {
    /// Encode.
    pub fn enc(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.machine);
        put_u32(&mut out, self.gen);
        put_u64(&mut out, self.created);
        put_u64(&mut out, self.finished);
        put_len(&mut out, self.closed.len());
        for &(dest, n) in &self.closed {
            put_u64(&mut out, dest);
            put_u32(&mut out, n);
        }
        out
    }
    /// Decode.
    pub fn dec(bytes: &[u8]) -> io::Result<Exiting> {
        let d = &mut Dec::new(bytes);
        let mut e = Exiting {
            machine: d.u64()?,
            gen: d.u32()?,
            created: d.u64()?,
            finished: d.u64()?,
            closed: Vec::new(),
        };
        let n = d.len(12)?;
        e.closed.reserve(n);
        for _ in 0..n {
            let dest = d.u64()?;
            let count = d.u32()?;
            e.closed.push((dest, count));
        }
        d.finish()?;
        Ok(e)
    }
}

/// First frame on every data-plane connection ([`K_PREAMBLE`]): who is
/// dialing and which message class the connection carries. One TCP
/// connection per (sender, receiver, class) keeps per-class FIFO order —
/// the property the epoch protocol relies on — while letting migration
/// and control traffic bypass a backed-up data stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Preamble {
    /// The dialing machine.
    pub from_machine: u64,
    /// The dialing machine's incarnation.
    pub gen: u32,
    /// The class every subsequent [`K_TASK_MSG`] frame belongs to.
    pub class: MsgClass,
}

impl Preamble {
    /// Encode.
    pub fn enc(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.from_machine);
        put_u32(&mut out, self.gen);
        put_class(&mut out, self.class);
        out
    }
    /// Decode.
    pub fn dec(bytes: &[u8]) -> io::Result<Preamble> {
        let d = &mut Dec::new(bytes);
        let p = Preamble {
            from_machine: d.u64()?,
            gen: d.u32()?,
            class: dec_class(d)?,
        };
        d.finish()?;
        Ok(p)
    }
}

/// Encode a [`K_TASK_MSG`] payload: sender task, receiver task, message.
pub fn enc_task_msg(from: TaskId, to: TaskId, msg: &OpMsg) -> Vec<u8> {
    let mut out = Vec::new();
    enc_task_msg_into(from, to, msg, &mut out);
    out
}

/// Append a [`K_TASK_MSG`] payload to a caller-owned buffer.
pub fn enc_task_msg_into(from: TaskId, to: TaskId, msg: &OpMsg, out: &mut Vec<u8>) {
    put_task(out, from);
    put_task(out, to);
    encode_opmsg(msg, out);
}

/// Append one complete `[len][K_TASK_MSG][payload]` frame to `buf`,
/// encoding the payload in place: a five-byte header placeholder goes
/// down first, the payload is written directly after it, and the length
/// is patched once the payload's size is known. The staging buffer is
/// the only storage the message ever occupies — no intermediate payload
/// `Vec`, no copy.
pub fn append_task_msg_frame(buf: &mut Vec<u8>, from: TaskId, to: TaskId, msg: &OpMsg) {
    let hdr = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0, K_TASK_MSG]);
    enc_task_msg_into(from, to, msg, buf);
    let len = buf.len() - hdr - 5;
    assert!(len <= MAX_FRAME, "task message frame too large: {len}");
    buf[hdr..hdr + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Decode a [`K_TASK_MSG`] payload.
pub fn dec_task_msg(bytes: &[u8]) -> io::Result<(TaskId, TaskId, OpMsg)> {
    let d = &mut Dec::new(bytes);
    let from = dec_task(d)?;
    let to = dec_task(d)?;
    let msg = decode_opmsg(d)?;
    d.finish()?;
    Ok((from, to, msg))
}

/// Encode a [`K_MATCH_BATCH`] payload.
pub fn enc_match_batch(matches: &[Match]) -> Vec<u8> {
    let mut out = Vec::new();
    enc_match_batch_into(matches, &mut out);
    out
}

/// Encode a [`K_MATCH_BATCH`] payload into a caller-owned buffer
/// (cleared first).
pub fn enc_match_batch_into(matches: &[Match], out: &mut Vec<u8>) {
    out.clear();
    put_len(out, matches.len());
    for m in matches {
        put_match(out, m);
    }
}

/// Decode a [`K_MATCH_BATCH`] payload.
pub fn dec_match_batch(bytes: &[u8]) -> io::Result<Vec<Match>> {
    let d = &mut Dec::new(bytes);
    let n = d.len(32)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(dec_match(d)?);
    }
    d.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Finals

/// `LatencyStats::to_parts()` on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyParts {
    /// Match count.
    pub count: u64,
    /// Latency sum in microseconds.
    pub sum_us: u64,
    /// Maximum latency in microseconds.
    pub max_us: u64,
    /// Power-of-two histogram buckets.
    pub buckets: [u64; 32],
}

fn put_latency(out: &mut Vec<u8>, l: &LatencyParts) {
    put_u64(out, l.count);
    put_u64(out, l.sum_us);
    put_u64(out, l.max_us);
    for b in l.buckets {
        put_u64(out, b);
    }
}
fn dec_latency(d: &mut Dec) -> io::Result<LatencyParts> {
    let count = d.u64()?;
    let sum_us = d.u64()?;
    let max_us = d.u64()?;
    let mut buckets = [0u64; 32];
    for b in &mut buckets {
        *b = d.u64()?;
    }
    Ok(LatencyParts {
        count,
        sum_us,
        max_us,
        buckets,
    })
}

/// Final counters of one grid joiner task.
#[derive(Clone, Debug)]
pub struct JoinerFinal {
    /// The joiner's task id.
    pub task: u64,
    /// Total matches emitted.
    pub matches: u64,
    /// Latency statistics.
    pub latency: LatencyParts,
    /// Tuples received through step-migration exchanges.
    pub migration_tuples_in: u64,
    /// Bytes received through step-migration exchanges.
    pub migration_bytes_in: u64,
    /// Tuples this parent kept at expansions.
    pub expand_stored_tuples: u64,
    /// Tuples this parent shipped to children at expansions.
    pub expand_sent_tuples: u64,
    /// Tuples this survivor absorbed at contractions.
    pub contract_stored_tuples: u64,
    /// Tuples this retiree forwarded at contractions.
    pub contract_sent_tuples: u64,
    /// How many times this machine slot retired.
    pub retirements: u64,
    /// Tuples dropped by windowed eviction.
    pub evicted_tuples: u64,
    /// Bytes dropped by windowed eviction.
    pub evicted_bytes: u64,
    /// Emitted pair identities `(R seq, S seq)` (only when
    /// `collect_matches`).
    pub match_log: Vec<(u64, u64)>,
    /// Order-independent `(count, sum, xor)` digest of every pair this
    /// joiner emitted — the always-on exactness witness.
    pub match_digest: (u64, u64, u64),
}

/// Final control-plane state of the controller (reshuffler 0).
#[derive(Clone, Debug)]
pub struct ControllerFinal {
    /// The reshuffler's task id.
    pub task: u64,
    /// Final grid assignment (mapping + per-slot positions + grid cells).
    pub assign: GridAssignment,
    /// The decision/migration event log.
    pub events: Vec<ControlEvent>,
    /// Progress samples (cluster-wide gauge timeline).
    pub samples: Vec<ProgressSample>,
}

/// One machine row of a worker's private metrics shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineRow {
    /// Messages in.
    pub messages_in: u64,
    /// Messages out.
    pub messages_out: u64,
    /// Bytes in.
    pub bytes_in: u64,
    /// Bytes out.
    pub bytes_out: u64,
    /// Busy time in microseconds.
    pub busy_us: u64,
    /// Stored bytes gauge.
    pub stored_bytes: u64,
    /// Peak stored bytes.
    pub peak_stored_bytes: u64,
    /// Spilled bytes.
    pub spilled_bytes: u64,
    /// Cumulative evicted bytes.
    pub evicted_bytes: u64,
    /// Window occupancy in tuples.
    pub window_tuples: u64,
}

/// A worker's private `Metrics` shard, flattened for absorption into the
/// coordinator's sink.
#[derive(Clone, Debug, Default)]
pub struct MetricsShard {
    /// Events processed.
    pub events: u64,
    /// Clock at the last processed event, in microseconds.
    pub last_event_at_us: u64,
    /// Data items processed by this worker.
    pub data_processed: u64,
    /// Per-machine counter rows (indexable by machine id).
    pub machines: Vec<MachineRow>,
}

/// Everything a worker ships home when it exits: per-task finals plus its
/// metrics shard ([`K_FINALS`]).
#[derive(Clone, Debug, Default)]
pub struct FinalsBundle {
    /// The reporting machine.
    pub machine: u64,
    /// Incarnation.
    pub gen: u32,
    /// Grid joiner finals (at most one per worker).
    pub joiners: Vec<JoinerFinal>,
    /// Controller final (worker 0 only).
    pub controller: Option<ControllerFinal>,
    /// The worker's metrics shard.
    pub shard: MetricsShard,
}

fn put_control_event(out: &mut Vec<u8>, e: &ControlEvent) {
    match e {
        ControlEvent::Decide {
            seq,
            at,
            from,
            to,
            epoch,
        } => {
            put_u8(out, 0);
            put_u64(out, *seq);
            put_sim_time(out, *at);
            put_mapping(out, *from);
            put_mapping(out, *to);
            put_u32(out, *epoch);
        }
        ControlEvent::Complete { at, epoch } => {
            put_u8(out, 1);
            put_sim_time(out, *at);
            put_u32(out, *epoch);
        }
        ControlEvent::Contract {
            seq,
            at,
            from,
            to,
            epoch,
        } => {
            put_u8(out, 2);
            put_u64(out, *seq);
            put_sim_time(out, *at);
            put_mapping(out, *from);
            put_mapping(out, *to);
            put_u32(out, *epoch);
        }
        ControlEvent::ContractComplete { at, epoch } => {
            put_u8(out, 3);
            put_sim_time(out, *at);
            put_u32(out, *epoch);
        }
        ControlEvent::Expand {
            seq,
            at,
            from,
            to,
            epoch,
        } => {
            put_u8(out, 4);
            put_u64(out, *seq);
            put_sim_time(out, *at);
            put_mapping(out, *from);
            put_mapping(out, *to);
            put_u32(out, *epoch);
        }
        ControlEvent::ExpandComplete { at, epoch } => {
            put_u8(out, 5);
            put_sim_time(out, *at);
            put_u32(out, *epoch);
        }
    }
}
fn dec_control_event(d: &mut Dec) -> io::Result<ControlEvent> {
    Ok(match d.u8()? {
        0 => ControlEvent::Decide {
            seq: d.u64()?,
            at: dec_sim_time(d)?,
            from: dec_mapping(d)?,
            to: dec_mapping(d)?,
            epoch: d.u32()?,
        },
        1 => ControlEvent::Complete {
            at: dec_sim_time(d)?,
            epoch: d.u32()?,
        },
        2 => ControlEvent::Contract {
            seq: d.u64()?,
            at: dec_sim_time(d)?,
            from: dec_mapping(d)?,
            to: dec_mapping(d)?,
            epoch: d.u32()?,
        },
        3 => ControlEvent::ContractComplete {
            at: dec_sim_time(d)?,
            epoch: d.u32()?,
        },
        4 => ControlEvent::Expand {
            seq: d.u64()?,
            at: dec_sim_time(d)?,
            from: dec_mapping(d)?,
            to: dec_mapping(d)?,
            epoch: d.u32()?,
        },
        5 => ControlEvent::ExpandComplete {
            at: dec_sim_time(d)?,
            epoch: d.u32()?,
        },
        b => return Err(bad(format!("bad ControlEvent tag {b}"))),
    })
}

fn put_joiner_final(out: &mut Vec<u8>, f: &JoinerFinal) {
    put_u64(out, f.task);
    put_u64(out, f.matches);
    put_latency(out, &f.latency);
    for v in [
        f.migration_tuples_in,
        f.migration_bytes_in,
        f.expand_stored_tuples,
        f.expand_sent_tuples,
        f.contract_stored_tuples,
        f.contract_sent_tuples,
        f.retirements,
        f.evicted_tuples,
        f.evicted_bytes,
    ] {
        put_u64(out, v);
    }
    put_len(out, f.match_log.len());
    for &(r, s) in &f.match_log {
        put_u64(out, r);
        put_u64(out, s);
    }
    put_u64(out, f.match_digest.0);
    put_u64(out, f.match_digest.1);
    put_u64(out, f.match_digest.2);
}
fn dec_joiner_final(d: &mut Dec) -> io::Result<JoinerFinal> {
    let task = d.u64()?;
    let matches = d.u64()?;
    let latency = dec_latency(d)?;
    let migration_tuples_in = d.u64()?;
    let migration_bytes_in = d.u64()?;
    let expand_stored_tuples = d.u64()?;
    let expand_sent_tuples = d.u64()?;
    let contract_stored_tuples = d.u64()?;
    let contract_sent_tuples = d.u64()?;
    let retirements = d.u64()?;
    let evicted_tuples = d.u64()?;
    let evicted_bytes = d.u64()?;
    let n = d.len(16)?;
    let mut match_log = Vec::with_capacity(n);
    for _ in 0..n {
        match_log.push((d.u64()?, d.u64()?));
    }
    let match_digest = (d.u64()?, d.u64()?, d.u64()?);
    Ok(JoinerFinal {
        task,
        matches,
        latency,
        migration_tuples_in,
        migration_bytes_in,
        expand_stored_tuples,
        expand_sent_tuples,
        contract_stored_tuples,
        contract_sent_tuples,
        retirements,
        evicted_tuples,
        evicted_bytes,
        match_log,
        match_digest,
    })
}

impl FinalsBundle {
    /// Encode.
    pub fn enc(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.machine);
        put_u32(&mut out, self.gen);
        put_len(&mut out, self.joiners.len());
        for f in &self.joiners {
            put_joiner_final(&mut out, f);
        }
        match &self.controller {
            None => put_u8(&mut out, 0),
            Some(c) => {
                put_u8(&mut out, 1);
                put_u64(&mut out, c.task);
                put_assignment(&mut out, &c.assign);
                put_len(&mut out, c.events.len());
                for e in &c.events {
                    put_control_event(&mut out, e);
                }
                put_len(&mut out, c.samples.len());
                for s in &c.samples {
                    put_u64(&mut out, s.seq);
                    put_sim_time(&mut out, s.at);
                    put_u64(&mut out, s.max_stored_bytes);
                    put_u64(&mut out, s.total_stored_bytes);
                }
            }
        }
        put_u64(&mut out, self.shard.events);
        put_u64(&mut out, self.shard.last_event_at_us);
        put_u64(&mut out, self.shard.data_processed);
        put_len(&mut out, self.shard.machines.len());
        for r in &self.shard.machines {
            for v in [
                r.messages_in,
                r.messages_out,
                r.bytes_in,
                r.bytes_out,
                r.busy_us,
                r.stored_bytes,
                r.peak_stored_bytes,
                r.spilled_bytes,
                r.evicted_bytes,
                r.window_tuples,
            ] {
                put_u64(&mut out, v);
            }
        }
        out
    }

    /// Decode.
    pub fn dec(bytes: &[u8]) -> io::Result<FinalsBundle> {
        let d = &mut Dec::new(bytes);
        let machine = d.u64()?;
        let gen = d.u32()?;
        let nj = d.len(100)?;
        let mut joiners = Vec::with_capacity(nj);
        for _ in 0..nj {
            joiners.push(dec_joiner_final(d)?);
        }
        let controller = match d.u8()? {
            0 => None,
            1 => {
                let task = d.u64()?;
                let assign = dec_assignment(d)?;
                let ne = d.len(13)?;
                let mut events = Vec::with_capacity(ne);
                for _ in 0..ne {
                    events.push(dec_control_event(d)?);
                }
                let ns = d.len(32)?;
                let mut samples = Vec::with_capacity(ns);
                for _ in 0..ns {
                    samples.push(ProgressSample {
                        seq: d.u64()?,
                        at: dec_sim_time(d)?,
                        max_stored_bytes: d.u64()?,
                        total_stored_bytes: d.u64()?,
                    });
                }
                Some(ControllerFinal {
                    task,
                    assign,
                    events,
                    samples,
                })
            }
            b => return Err(bad(format!("bad controller tag {b}"))),
        };
        let events = d.u64()?;
        let last_event_at_us = d.u64()?;
        let data_processed = d.u64()?;
        let nm = d.len(80)?;
        let mut machines = Vec::with_capacity(nm);
        for _ in 0..nm {
            machines.push(MachineRow {
                messages_in: d.u64()?,
                messages_out: d.u64()?,
                bytes_in: d.u64()?,
                bytes_out: d.u64()?,
                busy_us: d.u64()?,
                stored_bytes: d.u64()?,
                peak_stored_bytes: d.u64()?,
                spilled_bytes: d.u64()?,
                evicted_bytes: d.u64()?,
                window_tuples: d.u64()?,
            });
        }
        d.finish()?;
        Ok(FinalsBundle {
            machine,
            gen,
            joiners,
            controller,
            shard: MetricsShard {
                events,
                last_event_at_us,
                data_processed,
                machines,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, K_PROBE, &enc_u64(7)).unwrap();
        write_frame(&mut buf, K_EOS, &[]).unwrap();
        let mut r = &buf[..];
        let (k1, p1) = read_frame(&mut r).unwrap();
        assert_eq!((k1, dec_u64(&p1).unwrap()), (K_PROBE, 7));
        let (k2, p2) = read_frame(&mut r).unwrap();
        assert_eq!((k2, p2.len()), (K_EOS, 0));
    }

    #[test]
    fn appended_frames_match_write_frame_bytes() {
        let msgs = [
            OpMsg::ProcessedCopies { n: 9 },
            OpMsg::MigDone,
            OpMsg::IngestBatch {
                items: vec![IngestItem {
                    rel: Rel::R,
                    key: -3,
                    aux: 7,
                    bytes: 64,
                    seq: 11,
                }],
            },
        ];
        let mut staged = vec![0xAA, 0xBB]; // dirty prefix survives untouched
        let mut reference = vec![0xAA, 0xBB];
        for (i, msg) in msgs.iter().enumerate() {
            let (from, to) = (TaskId(i), TaskId(i + 1));
            append_task_msg_frame(&mut staged, from, to, msg);
            write_frame(&mut reference, K_TASK_MSG, &enc_task_msg(from, to, msg)).unwrap();
        }
        assert_eq!(staged, reference);
        // And the coalesced buffer decodes back frame by frame.
        let mut r = &staged[2..];
        let mut payload = Vec::new();
        for msg in &msgs {
            let kind = read_frame_into(&mut r, &mut payload).unwrap();
            assert_eq!(kind, K_TASK_MSG);
            let (_, _, back) = dec_task_msg(&payload).unwrap();
            assert_eq!(opmsg_to_bytes(&back), opmsg_to_bytes(msg));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn buf_pool_recycles_and_bounds() {
        let pool = BufPool::new();
        let mut a = pool.get();
        a.extend_from_slice(b"hello");
        let cap = a.capacity();
        pool.put(a);
        let b = pool.get();
        assert!(b.is_empty(), "pooled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity is recycled");
        // Oversized buffers are dropped, not retained.
        pool.put(Vec::with_capacity(POOL_MAX_CAPACITY + 1));
        assert_eq!(pool.get().capacity(), 0);
    }

    #[test]
    fn builder_round_trip_is_lossless() {
        let mut b = SessionBuilder::new(4, OperatorKind::Dynamic);
        b.predicate = Predicate::Band { width: 3 };
        b.seed = 0xABCD;
        b.workload = "wire-test".into();
        b.lifecycle.window = Some(WindowSpec {
            mode: WindowMode::Time,
            span: 1000,
            sub_windows: 4,
            ticks: TickSource::AuxEventTime,
        });
        b.elasticity.elastic = Some(aoj_operators::ElasticConfig::new(64 << 10, 2));
        let bytes = encode_builder(&b);
        let back = decode_builder(&bytes).unwrap();
        assert_eq!(encode_builder(&back), bytes);
        assert_eq!(fingerprint(&bytes), fingerprint(&encode_builder(&back)));
    }

    #[test]
    #[should_panic(expected = "cannot cross a process boundary")]
    fn theta_predicate_refuses_to_encode() {
        use std::sync::Arc;
        let mut b = SessionBuilder::new(2, OperatorKind::Dynamic);
        b.predicate = Predicate::Theta(Arc::new(|_, _| true));
        encode_builder(&b);
    }
}
