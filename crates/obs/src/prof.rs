//! Host-time profiler: where the *wall clock* goes, attributed to a
//! tree of sites.
//!
//! Everything else in this crate measures simulated nanoseconds. This
//! module applies the same Figure-5 discipline to **host** time: the
//! interpreter (`oocp-ir`) and the machine's charge paths carry scoped
//! probes that attribute real `Instant` deltas to a site tree — kernel
//! → loop nest → statement → opcode class on the interpreter side,
//! flat residency/ledger/journal/sampler buckets on the machine side.
//! The resulting [`Profile`] is the attribution baseline the register
//! bytecode was driven by: it exports inferno-compatible collapsed
//! stacks, merges across runs, and diffs against another capture by
//! site path.
//!
//! The probes **do not exist** when detached: the interpreter's
//! dispatch loop is generic over a [`ProfSink`], its lowering step
//! emits site-bracket ops only when the sink's `ACTIVE` is true, and
//! the default [`NoProf`] sink has `ACTIVE = false` and empty inline
//! methods. Attached runs read the host clock but never the sim clock,
//! so every simulated timestamp, checksum, and stat stays bit-identical
//! (property-tested in `tests/proptest_prof.rs`).

use crate::{json, Json};
use std::time::Instant;

/// Schema identifier written by [`Profile::to_json`].
pub const PROF_SCHEMA: &str = "oocp-prof-v1";

/// A destination for scoped host-time probes.
///
/// The interpreter is generic over this trait; the two implementations
/// are [`NoProf`] (the default — `ACTIVE = false`, every method an
/// empty `#[inline(always)]` body, so probe sites vanish at
/// monomorphization) and `&mut HostProf` (live attribution).
pub trait ProfSink {
    /// Whether probes are live. Callers may gate *preparation* work
    /// (label formatting, etc.) on this associated const so detached
    /// builds pay nothing at all.
    const ACTIVE: bool;
    /// Open a scoped site named `name` under the current site.
    fn enter(&mut self, name: &str);
    /// Close the most recently opened site.
    fn exit(&mut self);
}

/// The detached sink: all probes compile to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProf;

impl ProfSink for NoProf {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn enter(&mut self, _name: &str) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

struct LiveNode {
    name: String,
    children: Vec<usize>,
    total_ns: u64,
    count: u64,
}

/// A live host-time collector: an interned site tree plus an open-scope
/// stack of `Instant`s. Attach with `&mut prof` as the interpreter's sink,
/// then [`HostProf::finish`] into an immutable [`Profile`].
pub struct HostProf {
    nodes: Vec<LiveNode>,
    stack: Vec<(usize, Instant)>,
}

impl Default for HostProf {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProf {
    /// A fresh collector with an empty `all` root.
    pub fn new() -> Self {
        Self {
            nodes: vec![LiveNode {
                name: "all".to_string(),
                children: Vec::new(),
                total_ns: 0,
                count: 0,
            }],
            stack: Vec::new(),
        }
    }

    fn child(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&id) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(LiveNode {
            name: name.to_string(),
            children: Vec::new(),
            total_ns: 0,
            count: 0,
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Depth of the open-scope stack (for tests and sanity checks).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Close every remaining open scope and freeze the tree. The root's
    /// total is defined as the sum of its children, so a `Profile`
    /// always satisfies the conservation invariant `self_ns = total -
    /// Σ children` with a zero-self root.
    pub fn finish(mut self) -> Profile {
        while !self.stack.is_empty() {
            self.exit_scope();
        }
        self.nodes[0].total_ns = self.nodes[0]
            .children
            .iter()
            .map(|&c| self.nodes[c].total_ns)
            .sum();
        Profile {
            root: self.freeze(0),
        }
    }

    fn freeze(&self, id: usize) -> ProfNode {
        let n = &self.nodes[id];
        ProfNode {
            name: n.name.clone(),
            total_ns: n.total_ns,
            count: n.count,
            children: n.children.iter().map(|&c| self.freeze(c)).collect(),
        }
    }

    #[inline]
    fn enter_scope(&mut self, name: &str) {
        let cur = self.stack.last().map_or(0, |s| s.0);
        let id = self.child(cur, name);
        self.nodes[id].count += 1;
        self.stack.push((id, Instant::now()));
    }

    #[inline]
    fn exit_scope(&mut self) {
        let (id, t0) = self.stack.pop().expect("prof exit without enter");
        self.nodes[id].total_ns += t0.elapsed().as_nanos() as u64;
    }
}

impl ProfSink for &mut HostProf {
    const ACTIVE: bool = true;
    #[inline]
    fn enter(&mut self, name: &str) {
        self.enter_scope(name);
    }
    #[inline]
    fn exit(&mut self) {
        self.exit_scope();
    }
}

/// Machine-side host-time buckets. The machine's charge paths are not
/// a call tree the interpreter can see into, so they accrue into four
/// flat buckets that land as a `machine` subtree under the profile
/// root. Residency covers the whole `touch` path, so the Ledger bucket
/// (accrued inside touches) and any journal writes a touch eviction
/// triggers overlap it — the subtree reports where machine time goes,
/// it is not a disjoint partition of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineBucket {
    /// `touch`/`touch_nb` residency checks and fault handling.
    Residency,
    /// Prefetch-ledger consumption bookkeeping on the touch fast path.
    Ledger,
    /// Write-ahead journal reserve/append protocol in writebacks.
    Journal,
    /// Metrics-registry fills in the time-series sampler.
    Sampler,
}

const MACHINE_BUCKETS: usize = 4;
const MACHINE_BUCKET_NAMES: [&str; MACHINE_BUCKETS] = ["residency", "ledger", "journal", "sampler"];

/// Flat host-time accumulator for the machine's charge paths. Plain
/// data (no `Instant`s stored): the caller measures each duration and
/// only the sums live here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineProf {
    ns: [u64; MACHINE_BUCKETS],
    count: [u64; MACHINE_BUCKETS],
}

impl MachineProf {
    /// Accrue `ns` host-nanoseconds into `bucket`.
    #[inline]
    pub fn record(&mut self, bucket: MachineBucket, ns: u64) {
        let i = bucket as usize;
        self.ns[i] += ns;
        self.count[i] += 1;
    }

    /// Total host time across all buckets.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// `(name, ns, count)` rows in declaration order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        (0..MACHINE_BUCKETS).map(|i| (MACHINE_BUCKET_NAMES[i], self.ns[i], self.count[i]))
    }
}

/// One frozen site: inclusive host time, entry count, children.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfNode {
    /// Site name (one stack frame).
    pub name: String,
    /// Inclusive host nanoseconds (children included).
    pub total_ns: u64,
    /// Times the site was entered.
    pub count: u64,
    /// Child sites, in first-entered order.
    pub children: Vec<ProfNode>,
}

impl ProfNode {
    /// Exclusive (self) time: inclusive minus children. Saturating,
    /// because each child reads the clock independently of its parent
    /// and rounding can push the sum a few ns past the parent.
    pub fn self_ns(&self) -> u64 {
        self.total_ns
            .saturating_sub(self.children.iter().map(|c| c.total_ns).sum())
    }

    fn merge_from(&mut self, other: &ProfNode) {
        debug_assert_eq!(self.name, other.name);
        self.total_ns += other.total_ns;
        self.count += other.count;
        for oc in &other.children {
            match self.children.iter_mut().find(|c| c.name == oc.name) {
                Some(c) => c.merge_from(oc),
                None => self.children.push(oc.clone()),
            }
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("total_ns", Json::U64(self.total_ns)),
            ("count", Json::U64(self.count)),
            (
                "children",
                Json::Arr(self.children.iter().map(ProfNode::to_json).collect()),
            ),
        ])
    }

    fn parse(v: &Json, depth: usize) -> Result<ProfNode, String> {
        if depth > 64 {
            return Err("profile tree deeper than 64 frames".into());
        }
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("profile node missing name")?
            .to_string();
        let total_ns = v
            .get("total_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("site {name}: missing total_ns"))?;
        let count = v
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("site {name}: missing count"))?;
        let children = v
            .get("children")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("site {name}: missing children"))?
            .iter()
            .map(|c| ProfNode::parse(c, depth + 1))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ProfNode {
            name,
            total_ns,
            count,
            children,
        })
    }
}

/// A frozen host-time capture: the site tree rooted at `all`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// The `all` root; its total is the sum of its children.
    pub root: ProfNode,
}

/// One site in flattened form: full `;`-joined path plus times.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteRow {
    /// Full path from the root, `;`-separated (`all;EMBAR;for#i;...`).
    pub path: String,
    /// Exclusive host time at this site.
    pub self_ns: u64,
    /// Inclusive host time at this site.
    pub total_ns: u64,
    /// Entry count.
    pub count: u64,
}

fn walk(node: &ProfNode, prefix: &str, out: &mut Vec<SiteRow>) {
    let path = if prefix.is_empty() {
        node.name.clone()
    } else {
        format!("{prefix};{}", node.name)
    };
    out.push(SiteRow {
        path: path.clone(),
        self_ns: node.self_ns(),
        total_ns: node.total_ns,
        count: node.count,
    });
    for c in &node.children {
        walk(c, &path, out);
    }
}

impl Profile {
    /// Total host time attributed anywhere in the tree.
    pub fn total_ns(&self) -> u64 {
        self.root.total_ns
    }

    /// Every site as a flattened row, preorder.
    pub fn rows(&self) -> Vec<SiteRow> {
        let mut out = Vec::new();
        walk(&self.root, "", &mut out);
        out
    }

    /// Merge another capture into this one: sites are aligned by name
    /// recursively, totals and counts add. The merge is a commutative
    /// monoid up to child ordering (property-tested via the canonical
    /// sorted collapsed form).
    pub fn merge(&mut self, other: &Profile) {
        if self.root.name != other.root.name {
            // Two captures always share the `all` root; anything else
            // is a caller error, but absorb it as a child rather than
            // corrupting the alignment.
            match self
                .root
                .children
                .iter_mut()
                .find(|c| c.name == other.root.name)
            {
                Some(c) => c.merge_from(&other.root),
                None => self.root.children.push(other.root.clone()),
            }
            self.root.total_ns += other.root.total_ns;
            return;
        }
        self.root.merge_from(&other.root);
    }

    /// Graft the machine-side buckets under the root as a `machine`
    /// subtree, keeping the root's children-sum invariant.
    pub fn attach_machine(&mut self, m: &MachineProf) {
        if m.rows().all(|(_, ns, count)| ns == 0 && count == 0) {
            return;
        }
        // Buckets the run never entered (e.g. the ledger under a
        // hint-free original build) would only add zero-count noise.
        let children = m
            .rows()
            .filter(|&(_, ns, count)| count > 0 || ns > 0)
            .map(|(name, ns, count)| ProfNode {
                name: name.to_string(),
                total_ns: ns,
                count,
                children: Vec::new(),
            })
            .collect();
        let sub = ProfNode {
            name: "machine".to_string(),
            total_ns: m.total_ns(),
            count: m.rows().map(|(_, _, c)| c).sum(),
            children,
        };
        self.root.total_ns += sub.total_ns;
        match self.root.children.iter_mut().find(|c| c.name == "machine") {
            Some(c) => c.merge_from(&sub),
            None => self.root.children.push(sub),
        }
    }

    /// Inferno-compatible collapsed-stack text: one `path self_ns` line
    /// per site with nonzero self time. Frames are `;`-separated; the
    /// value is *exclusive* time so the lines sum to the capture total.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for r in self.rows() {
            if r.self_ns > 0 {
                out.push_str(&r.path);
                out.push(' ');
                out.push_str(&r.self_ns.to_string());
                out.push('\n');
            }
        }
        if out.is_empty() {
            out.push_str("all 0\n");
        }
        out
    }

    /// Canonical collapsed form: lines sorted lexically, so two
    /// captures that differ only in child insertion order compare
    /// equal. This is the equality the merge-algebra proptests use.
    pub fn collapsed_canonical(&self) -> String {
        let mut lines: Vec<&str> = Vec::new();
        let c = self.collapsed();
        for l in c.lines() {
            lines.push(l);
        }
        lines.sort_unstable();
        let mut out = String::new();
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// The `n` sites with the most self time, descending (ties broken
    /// by path so the order is deterministic).
    pub fn top_self(&self, n: usize) -> Vec<SiteRow> {
        let mut rows = self.rows();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
        rows.truncate(n);
        rows
    }

    /// Serialize as an `oocp-prof-v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(PROF_SCHEMA.to_string())),
            ("root", self.root.to_json()),
        ])
    }

    /// Parse an `oocp-prof-v1` document.
    pub fn parse(doc: &Json) -> Result<Profile, String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == PROF_SCHEMA => {}
            Some(s) => return Err(format!("schema is {s}, expected {PROF_SCHEMA}")),
            None => return Err("missing schema field".into()),
        }
        let root = ProfNode::parse(doc.get("root").ok_or("missing root")?, 0)?;
        Ok(Profile { root })
    }

    /// Parse from text (convenience over [`Profile::parse`]).
    pub fn parse_text(text: &str) -> Result<Profile, String> {
        Profile::parse(&json::parse(text).map_err(|e| e.to_string())?)
    }
}

/// One aligned site in a differential profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffRow {
    /// Full `;`-joined site path.
    pub path: String,
    /// Self time in the first capture (zero if absent).
    pub a_self_ns: u64,
    /// Self time in the second capture (zero if absent).
    pub b_self_ns: u64,
}

impl DiffRow {
    /// Signed self-time delta, second minus first.
    pub fn delta(&self) -> i64 {
        self.b_self_ns as i64 - self.a_self_ns as i64
    }
}

/// Align two captures by full site path and report per-site self-time
/// deltas, largest absolute delta first. Sites present in only one
/// capture appear with the other side read as zero.
pub fn diff(a: &Profile, b: &Profile) -> Vec<DiffRow> {
    let mut rows: Vec<DiffRow> = Vec::new();
    for r in a.rows() {
        rows.push(DiffRow {
            path: r.path,
            a_self_ns: r.self_ns,
            b_self_ns: 0,
        });
    }
    for r in b.rows() {
        match rows.iter_mut().find(|d| d.path == r.path) {
            Some(d) => d.b_self_ns = r.self_ns,
            None => rows.push(DiffRow {
                path: r.path,
                a_self_ns: 0,
                b_self_ns: r.self_ns,
            }),
        }
    }
    rows.retain(|d| d.a_self_ns != 0 || d.b_self_ns != 0);
    rows.sort_by(|x, y| {
        y.delta()
            .unsigned_abs()
            .cmp(&x.delta().unsigned_abs())
            .then(x.path.cmp(&y.path))
    });
    rows
}

/// Structural validator for collapsed-stack text: every line must be
/// `frame(;frame)* <u64>`, frames non-empty, the first frame `all`.
/// Returns the number of lines. This is the shape `inferno` and the
/// `dash` flamegraph renderer consume; the CI smoke gate runs it on
/// the `profile` bin's output and a negative gate proves a corrupted
/// line is rejected.
pub fn check_collapsed(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: empty line"));
        }
        let (path, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no space-separated value"))?;
        if value.parse::<u64>().is_err() {
            return Err(format!(
                "line {lineno}: value '{value}' is not an unsigned integer"
            ));
        }
        let mut frames = path.split(';');
        match frames.next() {
            Some("all") => {}
            _ => return Err(format!("line {lineno}: stack does not start at 'all'")),
        }
        if path.split(';').any(|f| f.is_empty()) {
            return Err(format!("line {lineno}: empty frame in '{path}'"));
        }
        n += 1;
    }
    if n == 0 {
        return Err("no stack lines".into());
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    fn capture() -> Profile {
        let mut p = HostProf::new();
        {
            let mut s = &mut p;
            s.enter("kern");
            s.enter("for#i");
            s.enter("op:load");
            spin(40_000);
            s.exit();
            s.enter("op:store");
            spin(20_000);
            s.exit();
            s.exit();
            s.exit();
        }
        p.finish()
    }

    #[test]
    fn noprof_is_inert_and_inactive() {
        const { assert!(!NoProf::ACTIVE) }
        let mut s = NoProf;
        s.enter("x");
        s.exit();
    }

    #[test]
    fn tree_attributes_and_conserves_time() {
        let p = capture();
        assert_eq!(p.root.name, "all");
        assert_eq!(p.root.self_ns(), 0, "root total is the children sum");
        let rows = p.rows();
        let find = |path: &str| rows.iter().find(|r| r.path == path).unwrap();
        let load = find("all;kern;for#i;op:load");
        let store = find("all;kern;for#i;op:store");
        assert!(load.self_ns >= 40_000);
        assert!(store.self_ns >= 20_000);
        assert_eq!(load.count, 1);
        // Inclusive time at the loop covers both leaves.
        let loopn = find("all;kern;for#i");
        assert!(loopn.total_ns >= load.total_ns + store.total_ns);
        // Collapsed lines sum exactly to the capture total.
        let sum: u64 = p.rows().iter().map(|r| r.self_ns).sum();
        assert_eq!(sum, p.total_ns());
    }

    #[test]
    fn finish_closes_dangling_scopes() {
        let mut p = HostProf::new();
        {
            let mut s = &mut p;
            s.enter("kern");
            s.enter("for#i");
        }
        let prof = p.finish();
        assert_eq!(prof.rows().len(), 3);
    }

    #[test]
    fn merge_adds_and_aligns_by_name() {
        let a = capture();
        let b = capture();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.total_ns(), a.total_ns() + b.total_ns());
        let count = |p: &Profile, path: &str| {
            p.rows()
                .iter()
                .find(|r| r.path == path)
                .map_or(0, |r| r.count)
        };
        assert_eq!(count(&m, "all;kern;for#i;op:load"), 2);
        // Commutative up to child order.
        let mut m2 = b.clone();
        m2.merge(&a);
        assert_eq!(m.collapsed_canonical(), m2.collapsed_canonical());
    }

    #[test]
    fn machine_subtree_grafts_under_root() {
        let mut mp = MachineProf::default();
        mp.record(MachineBucket::Residency, 500);
        mp.record(MachineBucket::Journal, 300);
        mp.record(MachineBucket::Residency, 100);
        let mut p = capture();
        let before = p.total_ns();
        p.attach_machine(&mp);
        assert_eq!(p.total_ns(), before + 900);
        let rows = p.rows();
        let res = rows
            .iter()
            .find(|r| r.path == "all;machine;residency")
            .unwrap();
        assert_eq!(res.self_ns, 600);
        assert_eq!(res.count, 2);
        assert_eq!(p.root.self_ns(), 0, "root stays a pure sum");
    }

    #[test]
    fn collapsed_output_passes_validator_and_corruption_fails() {
        let p = capture();
        let text = p.collapsed();
        let n = check_collapsed(&text).expect("own output validates");
        assert!(n >= 2);
        assert!(check_collapsed("").is_err());
        assert!(check_collapsed("all;x notanumber\n").is_err());
        assert!(check_collapsed("kern;x 5\n").is_err(), "must start at all");
        assert!(check_collapsed("all;;x 5\n").is_err(), "empty frame");
        // An empty capture still emits a valid zero line.
        let empty = HostProf::new().finish();
        assert_eq!(check_collapsed(&empty.collapsed()).unwrap(), 1);
    }

    #[test]
    fn json_roundtrip_and_schema_check() {
        let mut p = capture();
        let mut mp = MachineProf::default();
        mp.record(MachineBucket::Sampler, 123);
        p.attach_machine(&mp);
        let text = p.to_json().to_string();
        let back = Profile::parse_text(&text).unwrap();
        assert_eq!(back, p);
        let bad = text.replace(PROF_SCHEMA, "oocp-prof-v9");
        assert!(Profile::parse_text(&bad).is_err());
    }

    #[test]
    fn diff_aligns_by_path_and_sorts_by_magnitude() {
        let mut a = capture();
        let b = capture();
        // Give `a` a site `b` lacks.
        let mut mp = MachineProf::default();
        mp.record(MachineBucket::Ledger, 1_000_000);
        a.attach_machine(&mp);
        let d = diff(&a, &b);
        let ledger = d.iter().find(|r| r.path == "all;machine;ledger").unwrap();
        assert_eq!(ledger.a_self_ns, 1_000_000);
        assert_eq!(ledger.b_self_ns, 0);
        assert_eq!(ledger.delta(), -1_000_000);
        assert_eq!(d[0].path, "all;machine;ledger", "largest |delta| first");
        // Self-diff is all-zero deltas.
        assert!(diff(&a, &a).iter().all(|r| r.delta() == 0));
    }

    #[test]
    fn top_self_ranks_descending() {
        // Fixed numbers, not a capture: which of two real spins ran
        // longer is the host scheduler's call.
        let site = |name: &str, total_ns: u64, children: &str| {
            format!(
                r#"{{"name":"{name}","total_ns":{total_ns},"count":1,"children":[{children}]}}"#
            )
        };
        let leaves = [site("op:load", 40_000, ""), site("op:store", 20_000, "")].join(",");
        let root = site("all", 65_000, &site("kern", 65_000, &leaves));
        let text = format!(r#"{{"schema":"{PROF_SCHEMA}","root":{root}}}"#);
        let top = Profile::parse_text(&text).unwrap().top_self(3);
        let ranked: Vec<(&str, u64)> = top.iter().map(|r| (&*r.path, r.self_ns)).collect();
        let expect = [
            ("all;kern;op:load", 40_000),
            ("all;kern;op:store", 20_000),
            ("all;kern", 5_000),
        ];
        assert_eq!(ranked, expect);
    }
}
