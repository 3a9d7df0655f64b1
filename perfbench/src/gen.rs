//! Seeded input generation: keys, values, Zipfian/uniform key choice and
//! the per-workload operation mixes.
//!
//! Every answer the store owes is known when an op is generated: the
//! [`Model`] applies each op as it is drawn, so a `get` carries the
//! version it must read back. The stores only ever receive the generated
//! ops; the client checks replies against the versions carried here.

/// Bytes in every key (`user%012d`).
pub const KEY_LEN: usize = 16;
/// Bytes in every value.
pub const VALUE_LEN: usize = 64;
/// Version marking an absent key in the [`Model`].
const ABSENT: u32 = u32::MAX;
/// A deleted slot in [`Model::live`].
const HOLE: u64 = u64::MAX;

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// YCSB's Zipfian generator (Gray et al.), scrambled so the hot ranks
/// spread over the key space instead of clustering at low ids.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2.min(n));
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// A scrambled rank in `[0, n)`.
    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        mix64(rank.min(self.n - 1)) % self.n
    }
}

/// `user%012d`.
pub fn key(id: u64) -> [u8; KEY_LEN] {
    let mut k = *b"user000000000000";
    let mut x = id;
    for b in k[4..].iter_mut().rev() {
        *b = b'0' + (x % 10) as u8;
        x /= 10;
    }
    k
}

/// The value version `ver` of key `id` holds: printable, and distinct
/// for every (id, version) pair a run can produce.
pub fn value(id: u64, ver: u32) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    let mut x = mix64(id.wrapping_mul(0x0100_0000_01B3) ^ ver as u64);
    for (i, b) in v.iter_mut().enumerate() {
        if i % 10 == 0 {
            x = mix64(x);
        }
        *b = b'a' + (x % 26) as u8;
        x /= 26;
    }
    v
}

/// The bytes the store holds for version `ver` of `id`. `framed` adds
/// the 4-byte flags word (0) `nvm-server` prepends to every value it
/// stores, so one store can be read both directly and over the wire.
pub fn stored(id: u64, ver: u32, framed: bool) -> StoredValue {
    let mut bytes = [0u8; 4 + VALUE_LEN];
    bytes[4..].copy_from_slice(&value(id, ver));
    StoredValue { bytes, framed }
}

pub struct StoredValue {
    bytes: [u8; 4 + VALUE_LEN],
    framed: bool,
}

impl StoredValue {
    pub fn as_slice(&self) -> &[u8] {
        if self.framed {
            &self.bytes
        } else {
            &self.bytes[4..]
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Set,
    Delete,
}

/// One generated operation and the answer it is owed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub id: u64,
    /// `Set`: the version written. `Get`: the version that must be read.
    pub ver: u32,
    /// `Set` of a key not stored before (an insert, not an update).
    pub fresh: bool,
}

/// How keys are chosen and which ops are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// 50% get, 50% update; Zipfian 0.99 (YCSB-A).
    YcsbA,
    /// 50% get, 30% update (Zipfian 0.99), 10% delete of a uniform
    /// resident key, 10% insert of a fresh key.
    Churn,
    /// 95% get, 5% update; uniform (YCSB-B).
    YcsbBUniform,
}

/// The expected contents of one key partition, advanced op by op.
#[derive(Debug, Clone)]
pub struct Model {
    /// Current version per id (`ABSENT` when not stored), indexed by
    /// `(id - first) / stride`.
    versions: Vec<u32>,
    /// Resident ids by slot; `HOLE` where a delete left a gap.
    live: Vec<u64>,
    holes: Vec<usize>,
    first: u64,
    stride: u64,
    zipf: Zipf,
    mix: Mix,
    rng: Rng,
}

impl Model {
    /// A partition of `n` resident keys with ids `first + i * stride`,
    /// all at version 0.
    pub fn new(mix: Mix, n: u64, first: u64, stride: u64, seed: u64) -> Model {
        Model {
            versions: vec![0; n as usize],
            live: (0..n).map(|i| first + i * stride).collect(),
            holes: Vec::new(),
            first,
            stride,
            zipf: Zipf::new(n, 0.99),
            mix,
            rng: Rng::new(seed),
        }
    }

    fn slot(&self, id: u64) -> usize {
        ((id - self.first) / self.stride) as usize
    }

    /// Version currently expected for `id`, if it is stored.
    pub fn version(&self, id: u64) -> Option<u32> {
        let v = *self.versions.get(self.slot(id))?;
        (v != ABSENT).then_some(v)
    }

    /// Every stored id with its expected version.
    pub fn resident(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.live
            .iter()
            .filter(|&&id| id != HOLE)
            .map(|&id| (id, self.versions[self.slot(id)]))
    }

    pub fn resident_len(&self) -> usize {
        self.live.len() - self.holes.len()
    }

    /// A resident id: Zipfian over the slots for the skewed mixes,
    /// uniform otherwise.
    fn pick(&mut self, skewed: bool) -> u64 {
        loop {
            let r = if skewed {
                self.zipf.next(&mut self.rng)
            } else {
                self.rng.below(self.live.len() as u64)
            };
            let id = self.live[r as usize % self.live.len()];
            if id != HOLE {
                return id;
            }
        }
    }

    fn get(&mut self, skewed: bool) -> Op {
        let id = self.pick(skewed);
        let ver = self.version(id).expect("picked ids are resident");
        Op {
            kind: Kind::Get,
            id,
            ver,
            fresh: false,
        }
    }

    fn update(&mut self, skewed: bool) -> Op {
        let id = self.pick(skewed);
        let s = self.slot(id);
        self.versions[s] += 1;
        Op {
            kind: Kind::Set,
            id,
            ver: self.versions[s],
            fresh: false,
        }
    }

    fn delete(&mut self) -> Op {
        let slot = loop {
            let s = self.rng.below(self.live.len() as u64) as usize;
            if self.live[s] != HOLE {
                break s;
            }
        };
        let id = self.live[slot];
        self.live[slot] = HOLE;
        self.holes.push(slot);
        let s = self.slot(id);
        self.versions[s] = ABSENT;
        Op {
            kind: Kind::Delete,
            id,
            ver: 0,
            fresh: false,
        }
    }

    fn insert(&mut self) -> Op {
        let id = self.first + self.versions.len() as u64 * self.stride;
        self.versions.push(0);
        match self.holes.pop() {
            Some(slot) => self.live[slot] = id,
            None => self.live.push(id),
        }
        Op {
            kind: Kind::Set,
            id,
            ver: 0,
            fresh: true,
        }
    }

    /// Draws the next op of this partition's mix and applies it.
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.below(100);
        match self.mix {
            Mix::YcsbA if r < 50 => self.get(true),
            Mix::YcsbA => self.update(true),
            Mix::Churn if r < 50 => self.get(true),
            Mix::Churn if r < 80 => self.update(true),
            Mix::Churn if r < 90 => self.delete(),
            Mix::Churn => self.insert(),
            Mix::YcsbBUniform if r < 95 => self.get(false),
            Mix::YcsbBUniform => self.update(false),
        }
    }

    /// An update of a resident key (replays that need a set whatever the
    /// mix).
    pub fn next_update(&mut self) -> Op {
        let skewed = self.mix != Mix::YcsbBUniform;
        self.update(skewed)
    }

    /// A read of a resident key, chosen as the mix chooses reads.
    pub fn next_get(&mut self) -> Op {
        let skewed = self.mix != Mix::YcsbBUniform;
        self.get(skewed)
    }

    /// A delete of a uniform resident key followed by the insert that
    /// keeps the resident count steady.
    pub fn next_delete_reinsert(&mut self) -> (Op, Op) {
        (self.delete(), self.insert())
    }
}

/// memcached text encoding of `op` (values carry flags 0).
pub fn encode(op: &Op, out: &mut Vec<u8>) {
    let k = key(op.id);
    match op.kind {
        Kind::Get => {
            out.extend_from_slice(b"get ");
            out.extend_from_slice(&k);
            out.extend_from_slice(b"\r\n");
        }
        Kind::Set => {
            out.extend_from_slice(b"set ");
            out.extend_from_slice(&k);
            out.extend_from_slice(b" 0 0 64\r\n");
            out.extend_from_slice(&value(op.id, op.ver));
            out.extend_from_slice(b"\r\n");
        }
        Kind::Delete => {
            out.extend_from_slice(b"delete ");
            out.extend_from_slice(&k);
            out.extend_from_slice(b"\r\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_and_values_are_fixed_width_and_distinct() {
        assert_eq!(&key(42), b"user000000000042");
        assert_ne!(value(1, 0), value(1, 1));
        assert_ne!(value(1, 0), value(2, 0));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Model::new(Mix::Churn, 1000, 0, 1, 7);
        let mut b = Model::new(Mix::Churn, 1000, 0, 1, 7);
        for _ in 0..10_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = Model::new(Mix::Churn, 1000, 0, 1, 8);
        assert!((0..100).any(|_| a.next_op() != c.next_op()));
    }

    #[test]
    fn churn_keeps_resident_count_near_steady() {
        let mut m = Model::new(Mix::Churn, 10_000, 0, 1, 1);
        for _ in 0..100_000 {
            m.next_op();
        }
        let n = m.resident_len() as i64;
        assert!((n - 10_000).abs() < 1_000, "resident drifted to {n}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(3);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        counts.sort_unstable();
        assert!(counts[999] > 10 * counts[500]);
    }
}
