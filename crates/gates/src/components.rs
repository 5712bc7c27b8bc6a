//! Netlist builders for the BNB network's hardware components.
//!
//! Everything the paper describes as hardware is generated here as real
//! gates:
//!
//! - [`function_node`] — the arbiter node of Fig. 5:
//!   `z_u = x1 ⊕ x2`, `y1 = z_u · z_d`, `y2 = z̄_u + z_d`.
//! - [`arbiter`] — the tree arbiter `A(p)` of Definition 6 (up-sweep of
//!   XORs, down-sweep of flags, root echo).
//! - [`splitter_controls`] / [`splitter`] — the splitter `sp(p)` of Fig. 4:
//!   arbiter plus a bank of 2×2 switches set by `s ⊕ f`.
//! - [`bit_sorter`] — the bit-sorter network (Definition 4): a GBN of
//!   splitters.
//! - [`bnb_network`] — the complete `N`-input, `q = m + w` bit BNB network
//!   of Definition 5 as one combinational circuit, with [`BnbNetlist::route`]
//!   to push records through it.
//!
//! The generated circuits are cross-checked against the behavioural
//! simulator in `bnb-core`; they are also what the gate-depth measurements
//! in EXPERIMENTS.md run on.

use std::error::Error;
use std::fmt;

use bnb_topology::bitops::unshuffle;
use bnb_topology::record::Record;
use serde::{Deserialize, Serialize};

use crate::error::GateError;
use crate::netlist::{GateKind, Net, Netlist};

/// The three outputs of one arbiter function node (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionNodeOutputs {
    /// Up-signal to the parent: `x1 ⊕ x2`.
    pub zu: Net,
    /// Flag to the upper child: 0 if this node generates flags itself
    /// (`z_u = 0`), otherwise the parent flag `z_d`.
    pub y1: Net,
    /// Flag to the lower child: 1 if this node generates flags itself,
    /// otherwise `z_d`.
    pub y2: Net,
}

/// Emits one arbiter function node (Fig. 5).
///
/// Truth behaviour: for a type-1 pair (`x1 = x2`, so `z_u = 0`) the node
/// *generates* flags `y1 = 0`, `y2 = 1` regardless of `z_d`; for a type-2
/// pair (`z_u = 1`) it *forwards* the parent flag to both children.
pub fn function_node(nl: &mut Netlist, x1: Net, x2: Net, zd: Net) -> FunctionNodeOutputs {
    let zu = nl.xor(x1, x2);
    let y1 = nl.and(zu, zd);
    let nzu = nl.not(zu);
    let y2 = nl.or(nzu, zd);
    FunctionNodeOutputs { zu, y1, y2 }
}

/// Emits the tree arbiter `A(p)` over `2^p` one-bit inputs and returns one
/// flag per 2×2 switch (i.e. per adjacent input pair).
///
/// The switch-setting rule (paper §4, step 5) then uses
/// `control_t = s(2t) ⊕ flag_t`.
///
/// `A(1)` is pure wiring (no function nodes): the returned flag is the
/// constant 0, so `control = s(0)` — exactly the paper's "the input bit
/// itself is the switch setting signal".
///
/// # Panics
///
/// Panics if `inputs.len()` is not a power of two or is less than 2.
pub fn arbiter(nl: &mut Netlist, inputs: &[Net]) -> Vec<Net> {
    let n = inputs.len();
    assert!(
        n >= 2 && n.is_power_of_two(),
        "arbiter needs 2^p >= 2 inputs"
    );
    if n == 2 {
        // A(1): wiring only.
        let zero = nl.constant(false);
        return vec![zero];
    }
    let p = n.trailing_zeros() as usize;
    // Up-sweep: zu[l][t] for levels l = 1..=p (level 0 is the raw inputs).
    let mut zu_levels: Vec<Vec<Net>> = Vec::with_capacity(p + 1);
    zu_levels.push(inputs.to_vec());
    for l in 1..=p {
        let below = &zu_levels[l - 1];
        let mut level = Vec::with_capacity(below.len() / 2);
        for t in 0..below.len() / 2 {
            level.push(nl.xor(below[2 * t], below[2 * t + 1]));
        }
        zu_levels.push(level);
    }
    // Down-sweep: the root's incoming flag is its own zu (paper step 4).
    // zd[l][t] is the flag entering node (l, t).
    let root_zu = zu_levels[p][0];
    let mut zd_level = vec![root_zu];
    for l in (1..=p).rev() {
        let mut below = Vec::with_capacity(zd_level.len() * 2);
        for (t, &zd_in) in zd_level.iter().enumerate() {
            let zu = zu_levels[l][t];
            // y1 = zu & zd; y2 = !zu | zd  (Fig. 5).
            let y1 = nl.and(zu, zd_in);
            let nzu = nl.not(zu);
            let y2 = nl.or(nzu, zd_in);
            below.push(y1);
            below.push(y2);
        }
        zd_level = below;
    }
    // zd_level now holds one flag per level-0 position pair? No: after
    // processing level 1 it holds 2 * (#level-1 nodes) = n/2 * 2 = n flags —
    // one per raw input. The switch flag is the flag of the *upper* input.
    debug_assert_eq!(zd_level.len(), n);
    (0..n / 2).map(|t| zd_level[2 * t]).collect()
}

/// Emits the control signals of a splitter `sp(p)`:
/// `control_t = s(2t) ⊕ flag_t`, one per 2×2 switch.
///
/// `control = 0` routes straight (`s(2t) → even output`), `control = 1`
/// exchanges.
///
/// # Panics
///
/// Panics if `inputs.len()` is not a power of two or is less than 2.
pub fn splitter_controls(nl: &mut Netlist, inputs: &[Net]) -> Vec<Net> {
    let flags = arbiter(nl, inputs);
    flags
        .iter()
        .enumerate()
        .map(|(t, &f)| nl.xor(inputs[2 * t], f))
        .collect()
}

/// Outputs of a standalone splitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitterOutputs {
    /// One control per 2×2 switch (shared with the other slices of a nested
    /// network).
    pub controls: Vec<Net>,
    /// The routed one-bit outputs.
    pub outputs: Vec<Net>,
}

/// Emits a complete splitter `sp(p)` (Fig. 4): arbiter plus switch bank,
/// routing its own one-bit inputs.
///
/// # Panics
///
/// Panics if `inputs.len()` is not a power of two or is less than 2.
pub fn splitter(nl: &mut Netlist, inputs: &[Net]) -> SplitterOutputs {
    let controls = splitter_controls(nl, inputs);
    let mut outputs = Vec::with_capacity(inputs.len());
    for (t, &c) in controls.iter().enumerate() {
        let (a, b) = (inputs[2 * t], inputs[2 * t + 1]);
        outputs.push(nl.mux(c, a, b));
        outputs.push(nl.mux(c, b, a));
    }
    SplitterOutputs { controls, outputs }
}

/// Routes a bank of full words through 2×2 switches driven by `controls`:
/// lines `2t` and `2t+1` are exchanged when `controls[t]` is 1. Every bit
/// of the word gets its own pair of muxes — this is how the non-BSN slices
/// of a nested network "follow the routing of the bit-sorter network".
///
/// # Panics
///
/// Panics if `lines.len() != 2 * controls.len()`.
pub fn switch_bank(nl: &mut Netlist, controls: &[Net], lines: &[Vec<Net>]) -> Vec<Vec<Net>> {
    assert_eq!(lines.len(), 2 * controls.len(), "one control per line pair");
    let mut out = Vec::with_capacity(lines.len());
    for (t, &c) in controls.iter().enumerate() {
        let (up, lo) = (&lines[2 * t], &lines[2 * t + 1]);
        assert_eq!(up.len(), lo.len(), "word widths must match");
        let even: Vec<Net> = up.iter().zip(lo).map(|(&a, &b)| nl.mux(c, a, b)).collect();
        let odd: Vec<Net> = up.iter().zip(lo).map(|(&a, &b)| nl.mux(c, b, a)).collect();
        out.push(even);
        out.push(odd);
    }
    out
}

/// Emits a `2^k`-input bit-sorter network (Definition 4) over one-bit
/// inputs and returns the routed outputs.
///
/// Per Theorem 1, if exactly half the inputs are 1 the outputs satisfy
/// `out[j] = j mod 2`.
///
/// # Panics
///
/// Panics if `inputs.len()` is not a power of two or is less than 2.
pub fn bit_sorter(nl: &mut Netlist, inputs: &[Net]) -> Vec<Net> {
    let n = inputs.len();
    assert!(n >= 2 && n.is_power_of_two(), "BSN needs 2^k >= 2 inputs");
    let k = n.trailing_zeros() as usize;
    let mut lines = inputs.to_vec();
    for stage in 0..k {
        let size = 1usize << (k - stage);
        let mut next = Vec::with_capacity(n);
        for b in 0..(1usize << stage) {
            let span = &lines[b * size..(b + 1) * size];
            next.extend(splitter(nl, span).outputs);
        }
        if stage + 1 < k {
            let mut wired = vec![next[0]; n];
            for (j, &net) in next.iter().enumerate() {
                wired[unshuffle(k - stage, k, j)] = net;
            }
            lines = wired;
        } else {
            lines = next;
        }
    }
    lines
}

/// The ways a switching element can be broken, at the gate level.
///
/// Deliberately the same vocabulary (and the same element addressing) as
/// `bnb_core::fault::FaultKind`: the differential tests prove a fault
/// injected here and the same fault expressed behaviourally produce the
/// identical detection error or the identical routed frame. This crate
/// stays independent of `bnb-core`, so the vocabulary is duplicated rather
/// than imported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum GateFaultKind {
    /// 2×2 switch stuck-at-0: its control gate is jammed to constant 0.
    StuckStraight,
    /// 2×2 switch stuck-at-1: its control gate is jammed to constant 1.
    StuckExchange,
    /// Splitter arbiter tree dead: every switch in the box degrades to the
    /// greedy control `s(2t)` (its control gate is rewired to the upper
    /// input's tap).
    DeadArbiter,
    /// Address-tap link broken: the column's control-plane tap for one
    /// line is jammed to constant 0; the data path is untouched.
    BrokenLink,
}

impl GateFaultKind {
    /// Number of valid [`GateFault::element`] indices for this kind in one
    /// column of an `N = 2^m` network: switches and links span the whole
    /// column (`N/2` and `N`), arbiters are one per splitter box.
    pub fn elements(self, m: usize, main_stage: usize, internal_stage: usize) -> usize {
        let n = 1usize << m;
        let box_size = 1usize << (m - main_stage - internal_stage);
        match self {
            GateFaultKind::StuckStraight | GateFaultKind::StuckExchange => n / 2,
            GateFaultKind::DeadArbiter => n / box_size,
            GateFaultKind::BrokenLink => n,
        }
    }
}

/// One gate-level fault: a kind at a column and element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GateFault {
    /// Main-network stage (`0..m`).
    pub main_stage: usize,
    /// Column within the stage's nested networks (`0..m - main_stage`).
    pub internal_stage: usize,
    /// Global element index within the column: switch index, splitter-box
    /// index, or line index depending on the kind.
    pub element: usize,
    /// How the element is broken.
    pub kind: GateFaultKind,
}

impl GateFault {
    /// A fault at the given column and element.
    pub fn new(
        main_stage: usize,
        internal_stage: usize,
        element: usize,
        kind: GateFaultKind,
    ) -> Self {
        GateFault {
            main_stage,
            internal_stage,
            element,
            kind,
        }
    }

    /// Whether the site addresses a real element of an `N = 2^m` network.
    pub fn in_bounds(&self, m: usize) -> bool {
        self.main_stage < m
            && self.internal_stage < m - self.main_stage
            && self.element < self.kind.elements(m, self.main_stage, self.internal_stage)
    }
}

/// Error from routing records through a [`BnbNetlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BnbNetlistError {
    /// Wrong number of input records.
    RecordCount {
        /// Expected record count (N).
        expected: usize,
        /// Provided record count.
        actual: usize,
    },
    /// A record's destination does not fit in `m` bits.
    DestinationTooWide {
        /// The offending destination.
        dest: usize,
        /// The network width.
        n: usize,
    },
    /// A record's data does not fit in `w` bits.
    DataTooWide {
        /// The offending data word.
        data: u64,
        /// Data width in bits.
        w: usize,
    },
    /// Internal evaluation error (should not occur for a well-formed
    /// netlist).
    Gate(GateError),
    /// A checked route found a splitter whose *input* bits violate the
    /// Definition 3 precondition (sp(1): exactly one 1; wider: an even
    /// number of 1s). Mirrors `bnb_core::RouteError::UnbalancedSplitter`
    /// field for field.
    Unbalanced {
        /// Main-network stage of the offending column.
        main_stage: usize,
        /// Internal stage within the nested networks.
        internal_stage: usize,
        /// Global index of the splitter box's first line.
        first_line: usize,
        /// Box width (number of lines).
        width: usize,
        /// Ones observed among the input bits.
        ones: usize,
    },
    /// A checked route caught an injected fault: a splitter in a faulted
    /// column produced an uneven split (Theorem 3 says a healthy one
    /// cannot). Mirrors `bnb_core::RouteError::HardwareFault` field for
    /// field.
    HardwareFault {
        /// Main-network stage of the offending column.
        main_stage: usize,
        /// Internal stage within the nested networks.
        internal_stage: usize,
        /// Global index of the splitter box's first line.
        first_line: usize,
        /// Box width (number of lines).
        width: usize,
        /// Ones that left on even (upper) outputs.
        even_ones: usize,
        /// Ones that left on odd (lower) outputs.
        odd_ones: usize,
    },
    /// Fault injection or checked routing requested on a netlist built
    /// without the editable control-plane taps — use
    /// [`bnb_network_faultable`].
    NotFaultable,
    /// An injected fault addresses no real element of this network.
    FaultOutOfBounds {
        /// The rejected fault.
        fault: GateFault,
    },
}

impl fmt::Display for BnbNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BnbNetlistError::RecordCount { expected, actual } => {
                write!(f, "expected {expected} records, got {actual}")
            }
            BnbNetlistError::DestinationTooWide { dest, n } => {
                write!(f, "destination {dest} does not fit a {n}-output network")
            }
            BnbNetlistError::DataTooWide { data, w } => {
                write!(f, "data {data:#x} does not fit in {w} bits")
            }
            BnbNetlistError::Gate(e) => write!(f, "netlist evaluation failed: {e}"),
            BnbNetlistError::Unbalanced {
                main_stage,
                internal_stage,
                first_line,
                width,
                ones,
            } => write!(
                f,
                "unbalanced splitter input at main stage {main_stage}, internal stage \
                 {internal_stage}, lines {first_line}..{} ({ones} ones over {width} lines)",
                first_line + width
            ),
            BnbNetlistError::HardwareFault {
                main_stage,
                internal_stage,
                first_line,
                width,
                even_ones,
                odd_ones,
            } => write!(
                f,
                "hardware fault detected at main stage {main_stage}, internal stage \
                 {internal_stage}, lines {first_line}..{} (split {even_ones} even / \
                 {odd_ones} odd)",
                first_line + width
            ),
            BnbNetlistError::NotFaultable => {
                write!(f, "netlist was built without editable fault taps")
            }
            BnbNetlistError::FaultOutOfBounds { fault } => write!(
                f,
                "fault {:?} at ({}, {}, {}) addresses no element of this network",
                fault.kind, fault.main_stage, fault.internal_stage, fault.element
            ),
        }
    }
}

impl Error for BnbNetlistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BnbNetlistError::Gate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GateError> for BnbNetlistError {
    fn from(e: GateError) -> Self {
        BnbNetlistError::Gate(e)
    }
}

/// A complete gate-level BNB network (Definition 5) plus its word geometry.
///
/// # Example
///
/// ```
/// use bnb_gates::components::bnb_network;
/// use bnb_topology::record::Record;
///
/// let net = bnb_network(2, 4); // N = 4, 4 data bits
/// let recs = vec![
///     Record::new(2, 0xA), Record::new(0, 0xB),
///     Record::new(3, 0xC), Record::new(1, 0xD),
/// ];
/// let out = net.route(&recs)?;
/// assert_eq!(out[0], Record::new(0, 0xB));
/// assert_eq!(out[3], Record::new(3, 0xC));
/// # Ok::<(), bnb_gates::components::BnbNetlistError>(())
/// ```
/// Geometry and editing handles of one switching column of a faultable
/// netlist, recorded at build time. Boxes are contiguous ascending spans,
/// so box `b` covers `inputs[b * box_size..(b + 1) * box_size]` (and the
/// matching slices of `taps`, `outputs`, and `controls`).
#[derive(Debug, Clone)]
struct ColumnMeta {
    main_stage: usize,
    internal_stage: usize,
    box_size: usize,
    /// True address-slice bit entering the column, per line.
    inputs: Vec<Net>,
    /// Control-plane tap of that bit (an editable identity gate), per line.
    taps: Vec<Net>,
    /// The `s ⊕ f` control gate, per 2×2 switch.
    controls: Vec<Net>,
    /// Post-switch (pre-wiring) address-slice bit, per line.
    outputs: Vec<Net>,
}

#[derive(Debug, Clone)]
pub struct BnbNetlist {
    netlist: Netlist,
    m: usize,
    w: usize,
    /// One entry per switching column in route order; empty unless built
    /// with [`bnb_network_faultable`].
    columns: Vec<ColumnMeta>,
    /// Currently injected faults, in injection order.
    active: Vec<GateFault>,
    /// Healthy gates displaced by the active faults, for restoration.
    pristine: Vec<(Net, GateKind)>,
}

impl BnbNetlist {
    /// `log2` of the network width.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Data word width in bits.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Network width `N = 2^m`.
    pub fn inputs(&self) -> usize {
        1 << self.m
    }

    /// The underlying netlist (for census / delay analysis).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Routes one record per input line through the gate-level network.
    ///
    /// # Errors
    ///
    /// Returns a [`BnbNetlistError`] if the record count or any record's
    /// width is wrong. Note the circuit itself never errors: feeding it a
    /// non-permutation simply mis-routes, exactly like the hardware would.
    pub fn route(&self, records: &[Record]) -> Result<Vec<Record>, BnbNetlistError> {
        let bits = self.encode(records)?;
        let out_bits = self.netlist.eval(&bits)?;
        Ok(self.decode(&out_bits))
    }

    /// Validates records and flattens them into the netlist's input layout:
    /// address bits MSB-first (paper slice order), then data LSB-first.
    fn encode(&self, records: &[Record]) -> Result<Vec<bool>, BnbNetlistError> {
        let n = self.inputs();
        if records.len() != n {
            return Err(BnbNetlistError::RecordCount {
                expected: n,
                actual: records.len(),
            });
        }
        let mut bits = Vec::with_capacity(n * (self.m + self.w));
        for r in records {
            if r.dest() >= n {
                return Err(BnbNetlistError::DestinationTooWide { dest: r.dest(), n });
            }
            if self.w < 64 && r.data() >> self.w != 0 {
                return Err(BnbNetlistError::DataTooWide {
                    data: r.data(),
                    w: self.w,
                });
            }
            #[allow(clippy::needless_range_loop)] // k is the MSB-first bit position
            for k in 0..self.m {
                bits.push((r.dest() >> (self.m - 1 - k)) & 1 == 1);
            }
            for t in 0..self.w {
                bits.push((r.data() >> t) & 1 == 1);
            }
        }
        Ok(bits)
    }

    /// Reassembles records from the declared output bits.
    fn decode(&self, out_bits: &[bool]) -> Vec<Record> {
        let n = self.inputs();
        let q = self.m + self.w;
        let mut out = Vec::with_capacity(n);
        for j in 0..n {
            let word = &out_bits[j * q..(j + 1) * q];
            let mut dest = 0usize;
            #[allow(clippy::needless_range_loop)] // k is the MSB-first bit position
            for k in 0..self.m {
                dest = (dest << 1) | usize::from(word[k]);
            }
            let mut data = 0u64;
            for t in 0..self.w {
                if word[self.m + t] {
                    data |= 1 << t;
                }
            }
            out.push(Record::new(dest, data));
        }
        out
    }

    /// Whether this netlist was built with editable control-plane taps
    /// ([`bnb_network_faultable`]), i.e. supports fault injection and
    /// [`BnbNetlist::route_checked`].
    pub fn faultable(&self) -> bool {
        !self.columns.is_empty()
    }

    /// The currently injected faults, in injection order.
    pub fn active_faults(&self) -> &[GateFault] {
        &self.active
    }

    /// Injects a gate-level fault by editing the netlist in place.
    ///
    /// The edit mirrors the behavioural fault model exactly: stuck
    /// switches jam their control gate to a constant, a dead arbiter
    /// rewires every control in its box to the greedy `s(2t)` tap, and a
    /// broken link jams the column's tap for that line to 0. All active
    /// faults are re-applied from the pristine gates on every change, so
    /// precedence (stuck overrides the greedy fallback) is independent of
    /// injection order, matching `FaultMap::override_flags`.
    ///
    /// # Errors
    ///
    /// [`BnbNetlistError::NotFaultable`] on a default-built netlist,
    /// [`BnbNetlistError::FaultOutOfBounds`] if the site addresses no
    /// element.
    pub fn inject_fault(&mut self, fault: GateFault) -> Result<(), BnbNetlistError> {
        if !self.faultable() {
            return Err(BnbNetlistError::NotFaultable);
        }
        if !fault.in_bounds(self.m) {
            return Err(BnbNetlistError::FaultOutOfBounds { fault });
        }
        self.active.push(fault);
        self.reapply();
        Ok(())
    }

    /// Removes one previously injected fault (the first exact match) and
    /// restores the displaced gates. Returns whether a fault was removed.
    pub fn clear_fault(&mut self, fault: GateFault) -> bool {
        match self.active.iter().position(|&f| f == fault) {
            Some(i) => {
                self.active.remove(i);
                self.reapply();
                true
            }
            None => false,
        }
    }

    /// Removes every injected fault, restoring the pristine netlist.
    pub fn clear_faults(&mut self) {
        self.active.clear();
        self.reapply();
    }

    /// Restores all displaced gates, then re-applies the active fault list
    /// from scratch: dead arbiters first, stuck switches second (so a
    /// stuck latch overrides the greedy fallback, like the hardware),
    /// broken links last (they edit tap gates, disjoint from controls).
    fn reapply(&mut self) {
        for (net, kind) in std::mem::take(&mut self.pristine) {
            self.netlist
                .replace_gate(net, kind)
                .expect("restoring a recorded gate cannot fail");
        }
        let mut edits: Vec<(Net, GateKind)> = Vec::new();
        for f in &self.active {
            let col = self
                .columns
                .iter()
                .find(|c| c.main_stage == f.main_stage && c.internal_stage == f.internal_stage)
                .expect("in-bounds fault addresses a real column");
            match f.kind {
                GateFaultKind::DeadArbiter => {
                    let bs = col.box_size;
                    let first_switch = f.element * bs / 2;
                    for t in 0..bs / 2 {
                        let tap = col.taps[f.element * bs + 2 * t];
                        edits.push((col.controls[first_switch + t], GateKind::Or(tap, tap)));
                    }
                }
                GateFaultKind::StuckStraight => {
                    edits.push((col.controls[f.element], GateKind::Const(false)));
                }
                GateFaultKind::StuckExchange => {
                    edits.push((col.controls[f.element], GateKind::Const(true)));
                }
                GateFaultKind::BrokenLink => {
                    edits.push((col.taps[f.element], GateKind::Const(false)));
                }
            }
        }
        // Stuck-switch edits must land after dead-arbiter edits; the pass
        // above already emits per-fault edits in active order, so sort the
        // precedence explicitly: replay dead-arbiter/link edits first, then
        // stuck constants.
        edits.sort_by_key(|(_, kind)| matches!(kind, GateKind::Const(_)));
        for (net, kind) in edits {
            let old = self
                .netlist
                .replace_gate(net, kind)
                .expect("fault edits stay in bounds");
            if !self.pristine.iter().any(|&(n, _)| n == net) {
                self.pristine.push((net, old));
            }
        }
        debug_assert!(self.netlist.verify().is_ok());
    }

    /// Routes with the strict detect-or-deliver semantics of the
    /// behavioural fabric: every splitter's input bits are checked against
    /// the Definition 3 precondition, and in faulted columns the *output*
    /// split is audited (Theorem 3: a healthy splitter on a checked input
    /// always splits evenly, so an uneven split pins the corruption).
    /// Columns are scanned in route order and boxes ascending, first
    /// violation wins — the identical scan order as the scalar kernel of
    /// `bnb_core::stages::RouteSpan` (`Kernel::Scalar`), so the returned error
    /// matches the behavioural `RouteError` field for field.
    ///
    /// # Errors
    ///
    /// Validation errors as [`BnbNetlist::route`], plus
    /// [`BnbNetlistError::Unbalanced`], [`BnbNetlistError::HardwareFault`],
    /// and [`BnbNetlistError::NotFaultable`] on a default-built netlist.
    pub fn route_checked(&self, records: &[Record]) -> Result<Vec<Record>, BnbNetlistError> {
        if !self.faultable() {
            return Err(BnbNetlistError::NotFaultable);
        }
        let bits = self.encode(records)?;
        let (values, out_bits) = self.netlist.eval_all(&bits)?;
        let n = self.inputs();
        for col in &self.columns {
            let faulted = self
                .active
                .iter()
                .any(|f| f.main_stage == col.main_stage && f.internal_stage == col.internal_stage);
            for start in (0..n).step_by(col.box_size) {
                let box_in = &col.inputs[start..start + col.box_size];
                let ones = box_in.iter().filter(|b| values[b.index()]).count();
                let balanced_in = if col.box_size == 2 {
                    ones == 1
                } else {
                    ones % 2 == 0
                };
                if !balanced_in {
                    return Err(BnbNetlistError::Unbalanced {
                        main_stage: col.main_stage,
                        internal_stage: col.internal_stage,
                        first_line: start,
                        width: col.box_size,
                        ones,
                    });
                }
                if faulted {
                    let box_out = &col.outputs[start..start + col.box_size];
                    let even_ones = box_out
                        .iter()
                        .step_by(2)
                        .filter(|b| values[b.index()])
                        .count();
                    let odd_ones = box_out
                        .iter()
                        .skip(1)
                        .step_by(2)
                        .filter(|b| values[b.index()])
                        .count();
                    let balanced_out = if col.box_size == 2 {
                        even_ones == 0 && odd_ones == 1
                    } else {
                        even_ones == odd_ones
                    };
                    if !balanced_out {
                        return Err(BnbNetlistError::HardwareFault {
                            main_stage: col.main_stage,
                            internal_stage: col.internal_stage,
                            first_line: start,
                            width: col.box_size,
                            even_ones,
                            odd_ones,
                        });
                    }
                }
            }
        }
        Ok(self.decode(&out_bits))
    }
}

/// Builds the complete gate-level BNB network `B(m, B_k^q(i, SB_k))` with
/// `N = 2^m` inputs and `w` data bits per word (`q = m + w` slices).
///
/// Main stage `i` consists of `2^i` nested networks of `2^{m-i}` lines; the
/// nested network's slice `i` is a bit-sorter network whose splitter
/// controls drive the switches of *all* `q` slices; unshuffle wiring (free
/// of gates) joins internal stages and main stages.
///
/// # Panics
///
/// Panics if `m == 0` or `w > 63`.
pub fn bnb_network(m: usize, w: usize) -> BnbNetlist {
    build_bnb_network(m, w, false)
}

/// Like [`bnb_network`], but every column's control plane reads its
/// address bits through per-line identity *tap* gates and the builder
/// records every column's geometry and editing handles. The pristine
/// circuit computes exactly what [`bnb_network`] computes (a tap is the
/// identity), at the cost of `N` extra OR gates per column — and those
/// taps plus the recorded control nets are precisely the elements
/// [`BnbNetlist::inject_fault`] edits and [`BnbNetlist::route_checked`]
/// audits.
///
/// # Panics
///
/// Panics if `m == 0` or `w > 63`.
pub fn bnb_network_faultable(m: usize, w: usize) -> BnbNetlist {
    build_bnb_network(m, w, true)
}

fn build_bnb_network(m: usize, w: usize, faultable: bool) -> BnbNetlist {
    assert!(m >= 1, "network needs at least 2 inputs");
    assert!(w <= 63, "data width is limited to 63 bits");
    let n = 1usize << m;
    let q = m + w;
    let mut nl = Netlist::new();
    let mut columns: Vec<ColumnMeta> = Vec::new();
    // lines[j] = the q nets of the word currently on line j.
    let mut lines: Vec<Vec<Net>> = (0..n)
        .map(|j| {
            (0..q)
                .map(|b| {
                    if b < m {
                        nl.input(format!("in{j}.a{b}"))
                    } else {
                        nl.input(format!("in{j}.d{}", b - m))
                    }
                })
                .collect()
        })
        .collect();

    for main_stage in 0..m {
        let nested_size_log = m - main_stage;
        let nested_size = 1usize << nested_size_log;
        // Each nested network runs nested_size_log internal stages.
        for internal in 0..nested_size_log {
            let box_size = 1usize << (nested_size_log - internal);
            let mut next: Vec<Vec<Net>> = Vec::with_capacity(n);
            let mut meta = ColumnMeta {
                main_stage,
                internal_stage: internal,
                box_size,
                inputs: Vec::new(),
                taps: Vec::new(),
                controls: Vec::new(),
                outputs: Vec::new(),
            };
            for box_start in (0..n).step_by(box_size) {
                let span = &lines[box_start..box_start + box_size];
                // The BSN slice for this main stage is address bit
                // `main_stage` (paper: slice i of NB(i, l)).
                let slice_bits: Vec<Net> = span.iter().map(|word| word[main_stage]).collect();
                let controls = if faultable {
                    // The control plane reads the address bits through
                    // editable identity taps; the data path keeps the true
                    // nets, mirroring the behavioural model where a broken
                    // link corrupts only the control plane's *view*.
                    let taps: Vec<Net> = slice_bits.iter().map(|&b| nl.or(b, b)).collect();
                    let controls = splitter_controls(&mut nl, &taps);
                    meta.inputs.extend_from_slice(&slice_bits);
                    meta.taps.extend_from_slice(&taps);
                    meta.controls.extend_from_slice(&controls);
                    controls
                } else {
                    splitter_controls(&mut nl, &slice_bits)
                };
                let routed = switch_bank(&mut nl, &controls, span);
                if faultable {
                    meta.outputs
                        .extend(routed.iter().map(|word| word[main_stage]));
                }
                next.extend(routed);
            }
            if faultable {
                columns.push(meta);
            }
            if internal + 1 < nested_size_log {
                // Internal GBN wiring within each nested network:
                // U_{k-j}^{k} applied to the local index.
                let k = nested_size_log;
                let mut wired = vec![Vec::new(); n];
                for (j, word) in next.into_iter().enumerate() {
                    let base = j & !(nested_size - 1);
                    let local = j & (nested_size - 1);
                    wired[base | unshuffle(k - internal, k, local)] = word;
                }
                lines = wired;
            } else {
                lines = next;
            }
        }
        if main_stage + 1 < m {
            // Main GBN wiring: U_{m-i}^m on the global index.
            let mut wired = vec![Vec::new(); n];
            for (j, word) in lines.into_iter().enumerate() {
                wired[unshuffle(m - main_stage, m, j)] = word;
            }
            lines = wired;
        }
    }

    for (j, word) in lines.iter().enumerate() {
        for (b, &net) in word.iter().enumerate() {
            if b < m {
                nl.output(format!("out{j}.a{b}"), net);
            } else {
                nl.output(format!("out{j}.d{}", b - m), net);
            }
        }
    }
    BnbNetlist {
        netlist: nl,
        m,
        w,
        columns,
        active: Vec::new(),
        pristine: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_topology::perm::Permutation;
    use bnb_topology::record::{all_delivered, records_for_permutation};

    /// Exhaustive truth table of the Fig. 5 function node.
    #[test]
    fn function_node_truth_table() {
        let mut nl = Netlist::new();
        let x1 = nl.input("x1");
        let x2 = nl.input("x2");
        let zd = nl.input("zd");
        let node = function_node(&mut nl, x1, x2, zd);
        nl.output("zu", node.zu);
        nl.output("y1", node.y1);
        nl.output("y2", node.y2);
        for bits in 0..8u8 {
            let (v1, v2, vd) = (bits & 4 != 0, bits & 2 != 0, bits & 1 != 0);
            let out = nl.eval(&[v1, v2, vd]).unwrap();
            let zu = v1 ^ v2;
            let (y1, y2) = if zu { (vd, vd) } else { (false, true) };
            assert_eq!(out, vec![zu, y1, y2], "inputs ({v1},{v2},{vd})");
        }
    }

    /// Every even-weight input to a splitter must be split evenly onto even
    /// and odd outputs (Theorem 3), exhaustively for p = 2 and 3.
    #[test]
    fn splitter_splits_even_weight_inputs_evenly() {
        for p in [2usize, 3] {
            let n = 1 << p;
            let mut nl = Netlist::new();
            let ins: Vec<Net> = (0..n).map(|j| nl.input(format!("s{j}"))).collect();
            let sp = splitter(&mut nl, &ins);
            for (j, &o) in sp.outputs.iter().enumerate() {
                nl.output(format!("o{j}"), o);
            }
            for pattern in 0..(1u32 << n) {
                if pattern.count_ones() % 2 != 0 {
                    continue; // paper assumption: even number of ones
                }
                let input: Vec<bool> = (0..n).map(|j| pattern >> j & 1 == 1).collect();
                let out = nl.eval(&input).unwrap();
                let even_ones = out.iter().step_by(2).filter(|&&b| b).count();
                let odd_ones = out.iter().skip(1).step_by(2).filter(|&&b| b).count();
                assert_eq!(
                    even_ones, odd_ones,
                    "sp({p}) failed M_e = M_o for input {pattern:0n$b}"
                );
                // And it is a routing: multiset of bits preserved.
                let in_ones = input.iter().filter(|&&b| b).count();
                assert_eq!(even_ones + odd_ones, in_ones);
            }
        }
    }

    /// sp(1) sends 0 up and 1 down (Definition 3, p = 1 case).
    #[test]
    fn splitter_size_two_sorts_its_pair() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let sp = splitter(&mut nl, &[a, b]);
        nl.output("o0", sp.outputs[0]);
        nl.output("o1", sp.outputs[1]);
        assert_eq!(nl.eval(&[false, true]).unwrap(), vec![false, true]);
        assert_eq!(nl.eval(&[true, false]).unwrap(), vec![false, true]);
    }

    /// Theorem 1 at the gate level: a balanced input emerges as 0101…,
    /// exhaustively for k = 2 and 3.
    #[test]
    fn bit_sorter_realizes_theorem_1() {
        for k in [2usize, 3] {
            let n = 1 << k;
            let mut nl = Netlist::new();
            let ins: Vec<Net> = (0..n).map(|j| nl.input(format!("s{j}"))).collect();
            let outs = bit_sorter(&mut nl, &ins);
            for (j, &o) in outs.iter().enumerate() {
                nl.output(format!("o{j}"), o);
            }
            for pattern in 0..(1u32 << n) {
                if pattern.count_ones() as usize != n / 2 {
                    continue; // Theorem 1 assumes exactly half ones
                }
                let input: Vec<bool> = (0..n).map(|j| pattern >> j & 1 == 1).collect();
                let out = nl.eval(&input).unwrap();
                for (j, &bit) in out.iter().enumerate() {
                    assert_eq!(bit, j % 2 == 1, "BSN({k}) input {pattern:b} output {j}");
                }
            }
        }
    }

    /// Theorem 2 at the gate level: the full BNB netlist self-routes every
    /// permutation of 4 inputs, and a random sample of 8-input permutations.
    #[test]
    fn bnb_netlist_routes_permutations() {
        let net = bnb_network(2, 3);
        for k in 0..24 {
            let p = Permutation::nth_lexicographic(4, k);
            let out = net.route(&records_for_permutation(&p)).unwrap();
            assert!(all_delivered(&out), "perm {p} mis-routed at gate level");
            // Data words must travel with their addresses.
            for (j, r) in out.iter().enumerate() {
                assert_eq!(r.data(), p.inverse().apply(j) as u64);
            }
        }
    }

    #[test]
    fn bnb_netlist_routes_eight_inputs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let net = bnb_network(3, 5);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let p = Permutation::random(8, &mut rng);
            let out = net.route(&records_for_permutation(&p)).unwrap();
            assert!(all_delivered(&out), "perm {p} mis-routed at gate level");
        }
    }

    #[test]
    fn bnb_netlist_validates_inputs() {
        let net = bnb_network(2, 2);
        let too_few = vec![Record::new(0, 0)];
        assert!(matches!(
            net.route(&too_few),
            Err(BnbNetlistError::RecordCount {
                expected: 4,
                actual: 1
            })
        ));
        let wide_dest = vec![
            Record::new(9, 0),
            Record::new(1, 0),
            Record::new(2, 0),
            Record::new(3, 0),
        ];
        assert!(matches!(
            net.route(&wide_dest),
            Err(BnbNetlistError::DestinationTooWide { dest: 9, .. })
        ));
        let wide_data = vec![
            Record::new(0, 0xFF),
            Record::new(1, 0),
            Record::new(2, 0),
            Record::new(3, 0),
        ];
        assert!(matches!(
            net.route(&wide_data),
            Err(BnbNetlistError::DataTooWide { data: 0xFF, .. })
        ));
    }

    #[test]
    fn arbiter_of_two_inputs_is_wiring_only() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let flags = arbiter(&mut nl, &[a, b]);
        assert_eq!(flags.len(), 1);
        // No logic gates were emitted — A(1) is wiring (plus one constant).
        assert_eq!(nl.census().logic_gates(), 0);
    }

    #[test]
    fn switch_bank_exchanges_words() {
        let mut nl = Netlist::new();
        let c = nl.input("c");
        let a0 = nl.input("a0");
        let a1 = nl.input("a1");
        let b0 = nl.input("b0");
        let b1 = nl.input("b1");
        let out = switch_bank(&mut nl, &[c], &[vec![a0, a1], vec![b0, b1]]);
        for (j, word) in out.iter().enumerate() {
            for (b, &net) in word.iter().enumerate() {
                nl.output(format!("o{j}.{b}"), net);
            }
        }
        // c = 0: straight.
        assert_eq!(
            nl.eval(&[false, true, false, false, true]).unwrap(),
            vec![true, false, false, true]
        );
        // c = 1: exchanged.
        assert_eq!(
            nl.eval(&[true, true, false, false, true]).unwrap(),
            vec![false, true, true, false]
        );
    }

    #[test]
    fn gate_counts_grow_with_network_size() {
        let small = bnb_network(2, 0).netlist().census().logic_gates();
        let large = bnb_network(3, 0).netlist().census().logic_gates();
        assert!(large > 2 * small, "gate count must grow superlinearly");
    }

    #[test]
    fn faultable_network_is_equivalent_when_pristine() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for (m, w) in [(2usize, 3usize), (3, 4)] {
            let plain = bnb_network(m, w);
            let editable = bnb_network_faultable(m, w);
            assert!(editable.faultable());
            assert!(!plain.faultable());
            editable.netlist().verify().unwrap();
            let mut rng = StdRng::seed_from_u64(40);
            for _ in 0..20 {
                let p = Permutation::random(1 << m, &mut rng);
                let recs = records_for_permutation(&p);
                let expected = plain.route(&recs).unwrap();
                assert_eq!(editable.route(&recs).unwrap(), expected);
                assert_eq!(editable.route_checked(&recs).unwrap(), expected);
            }
        }
    }

    #[test]
    fn faultable_columns_cover_the_whole_network() {
        let net = bnb_network_faultable(3, 0);
        let n = net.inputs();
        // m + (m-1) + ... + 1 columns for m = 3.
        assert_eq!(net.columns.len(), 6);
        for col in &net.columns {
            assert_eq!(col.inputs.len(), n);
            assert_eq!(col.taps.len(), n);
            assert_eq!(col.outputs.len(), n);
            assert_eq!(col.controls.len(), n / 2);
        }
    }

    #[test]
    fn stuck_exchange_is_detected_or_harmless() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut net = bnb_network_faultable(2, 2);
        net.inject_fault(GateFault::new(1, 0, 0, GateFaultKind::StuckExchange))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut caught = 0;
        for _ in 0..40 {
            let p = Permutation::random(4, &mut rng);
            let recs = records_for_permutation(&p);
            match net.route_checked(&recs) {
                Ok(out) => assert!(all_delivered(&out), "silent misdelivery"),
                Err(BnbNetlistError::HardwareFault {
                    main_stage,
                    internal_stage,
                    ..
                }) => {
                    assert_eq!((main_stage, internal_stage), (1, 0));
                    caught += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(caught > 0, "fault never fired across 40 permutations");
    }

    #[test]
    fn clearing_faults_restores_the_pristine_circuit() {
        let pristine = bnb_network_faultable(3, 3);
        let mut net = pristine.clone();
        net.inject_fault(GateFault::new(0, 0, 1, GateFaultKind::StuckStraight))
            .unwrap();
        net.inject_fault(GateFault::new(0, 1, 0, GateFaultKind::DeadArbiter))
            .unwrap();
        net.inject_fault(GateFault::new(1, 0, 3, GateFaultKind::BrokenLink))
            .unwrap();
        assert_eq!(net.active_faults().len(), 3);
        assert!(net.clear_fault(GateFault::new(0, 1, 0, GateFaultKind::DeadArbiter)));
        assert!(!net.clear_fault(GateFault::new(0, 1, 0, GateFaultKind::DeadArbiter)));
        net.clear_faults();
        // Every displaced gate is restored: the netlists agree gate for gate.
        for nn in pristine.netlist().nets() {
            assert_eq!(net.netlist().gate(nn), pristine.netlist().gate(nn));
        }
        let p = Permutation::nth_lexicographic(8, 999);
        let recs = records_for_permutation(&p);
        assert_eq!(
            net.route_checked(&recs).unwrap(),
            pristine.route(&recs).unwrap()
        );
    }

    #[test]
    fn fault_injection_validates_its_target() {
        let mut plain = bnb_network(2, 0);
        assert!(matches!(
            plain.inject_fault(GateFault::new(0, 0, 0, GateFaultKind::BrokenLink)),
            Err(BnbNetlistError::NotFaultable)
        ));
        assert!(matches!(
            plain.route_checked(&[]),
            Err(BnbNetlistError::NotFaultable)
        ));
        let mut net = bnb_network_faultable(2, 0);
        assert!(matches!(
            net.inject_fault(GateFault::new(5, 0, 0, GateFaultKind::StuckStraight)),
            Err(BnbNetlistError::FaultOutOfBounds { .. })
        ));
        assert!(matches!(
            net.inject_fault(GateFault::new(0, 0, 4, GateFaultKind::StuckStraight)),
            Err(BnbNetlistError::FaultOutOfBounds { .. })
        ));
    }

    #[test]
    fn editing_changes_combinational_depth_and_back() {
        use crate::delay::{critical_path, DelayModel};
        let mut net = bnb_network_faultable(2, 0);
        let before = critical_path(net.netlist(), &DelayModel::unit())
            .unwrap()
            .delay;
        // Jamming a first-column control to a constant shortens the cone
        // through that switch; the recomputed depth must not grow.
        net.inject_fault(GateFault::new(0, 0, 0, GateFaultKind::StuckExchange))
            .unwrap();
        let during = critical_path(net.netlist(), &DelayModel::unit())
            .unwrap()
            .delay;
        assert!(
            during <= before,
            "a constant control cannot deepen the cone"
        );
        net.clear_faults();
        let after = critical_path(net.netlist(), &DelayModel::unit())
            .unwrap()
            .delay;
        assert_eq!(after, before, "repair restores the original depth");
    }
}
