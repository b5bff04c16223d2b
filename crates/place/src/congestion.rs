//! Probabilistic routing-congestion estimation.
//!
//! Reproduces the paper's congestion picture (Figures 1 and 7) and its
//! §5.1.3 statistics. The die is divided into routing tiles with horizontal
//! and vertical track capacities; each net deposits probabilistic routing
//! demand over its bounding box using either
//!
//! * **RUDY** (Rectangular Uniform wire DensitY, Spindler–Johannes): wire
//!   demand `(w + h)` smeared uniformly over the `w × h` bounding box — a
//!   robust, router-independent estimate; or
//! * **L-shape**: for every pin pair of the net's spanning star, the two
//!   one-bend routes each taken with probability ½, concentrating demand
//!   on the box edges like a real router does.
//!
//! The statistics match the paper's: the number of nets passing through
//! ≥ 100% and ≥ 90% utilized tiles, and the *average congestion metric*
//! ("taking the worst 20% congested nets and averaging the congestion
//! number of all routing tiles these nets pass through").
//!
//! # Stripe-batched estimation
//!
//! [`estimate`] does not deposit each net into a shared global grid.
//! Instead the tile rows are split into horizontal *stripes*
//! ([`gtl_core::shard::stripes`]), nets are binned to the stripes their
//! bounding box crosses, and one [`gtl_core::exec::run_map`] pass
//! computes every stripe's demand slab — each stripe owning its own
//! accumulator, which doubles as the returned slab. Within a stripe, nets
//! deposit in ascending id order, so every tile receives exactly the
//! additions of the serial per-net pass in the same order: the map is
//! bit-identical to [`estimate_reference`] for any worker count.
//!
//! The pass keeps no per-net geometry table. Its serial prepass builds
//! only the tile boxes the map keeps for [`CongestionMap::report`] (8
//! bytes a net), and binning reads the tile rows from them. Each stripe
//! recomputes the float box of every net it visits from the net's pins,
//! with the same fold in pin order, so a net crossing several stripes is
//! folded once per stripe and deposits the same bits. A net whose folded
//! box is inverted on either axis — every pin's coordinate on that axis
//! is NaN, which the `min`/`max` fold skips — is treated like a net
//! without pins: its box is `(0, 0, 0, 0)` and it deposits no demand.

use std::ops::Range;

use gtl_core::exec::{run_map, Granularity};
use gtl_core::shard::stripes;
use gtl_netlist::{NetId, Netlist};

use crate::{Die, Placement};

/// Tile rows per stripe in the batched estimator — the workspace-shared
/// fixed height (never derived from the worker count), so the
/// decomposition and with it the result stay machine-independent.
const STRIPE_ROWS: usize = gtl_core::shard::DEFAULT_STRIPE_ROWS;

/// Which probabilistic router model deposits demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DemandModel {
    /// Uniform bounding-box smear (RUDY).
    #[default]
    Rudy,
    /// Half-probability one-bend routes on star topology.
    LShape,
}

/// Routing-grid parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RoutingConfig {
    /// Tiles per die side (grid is `tiles × tiles`).
    pub tiles: usize,
    /// Horizontal track capacity per tile; `None` auto-calibrates so that
    /// the mean tile utilization is [`RoutingConfig::target_mean`].
    pub h_capacity: Option<f64>,
    /// Vertical track capacity per tile; `None` auto-calibrates.
    pub v_capacity: Option<f64>,
    /// Mean utilization targeted by auto-calibration.
    pub target_mean: f64,
    /// Demand model.
    pub model: DemandModel,
    /// Worker threads for the striped pass; `0` means all cores. The
    /// demand map is bit-identical for every value.
    pub threads: usize,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        Self {
            tiles: 32,
            h_capacity: None,
            v_capacity: None,
            target_mean: 0.55,
            model: DemandModel::Rudy,
            threads: 0,
        }
    }
}

/// A computed congestion map.
#[derive(Debug, Clone)]
pub struct CongestionMap {
    tiles: usize,
    h_demand: Vec<f64>,
    v_demand: Vec<f64>,
    h_capacity: f64,
    v_capacity: f64,
    /// Tile index range `(x0, y0, x1, y1)` of each net's bounding box.
    net_boxes: Vec<(u16, u16, u16, u16)>,
}

impl CongestionMap {
    /// Grid side length.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Horizontal track capacity per tile (explicit or auto-calibrated).
    pub fn h_capacity(&self) -> f64 {
        self.h_capacity
    }

    /// Vertical track capacity per tile (explicit or auto-calibrated).
    pub fn v_capacity(&self) -> f64 {
        self.v_capacity
    }

    /// Combined utilization of tile `(tx, ty)`: max of horizontal and
    /// vertical demand over capacity.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn utilization(&self, tx: usize, ty: usize) -> f64 {
        assert!(tx < self.tiles && ty < self.tiles, "tile out of range");
        let i = ty * self.tiles + tx;
        (self.h_demand[i] / self.h_capacity).max(self.v_demand[i] / self.v_capacity)
    }

    /// Largest tile utilization.
    pub fn max_utilization(&self) -> f64 {
        (0..self.tiles * self.tiles)
            .map(|i| (self.h_demand[i] / self.h_capacity).max(self.v_demand[i] / self.v_capacity))
            .fold(0.0, f64::max)
    }

    /// Mean tile utilization.
    pub fn mean_utilization(&self) -> f64 {
        let n = (self.tiles * self.tiles) as f64;
        (0..self.tiles * self.tiles)
            .map(|i| (self.h_demand[i] / self.h_capacity).max(self.v_demand[i] / self.v_capacity))
            .sum::<f64>()
            / n
    }

    /// The paper's three §5.1.3 numbers as a bundle, from one pass over
    /// the nets.
    ///
    /// Each tile's utilization is computed once, and each net's *peak*,
    /// the highest utilization in its bounding box, once. A net passes
    /// through a tile at ≥ t, for t > 0, exactly when its peak is ≥ t,
    /// which gives the "nets through ≥ 100% / ≥ 90% tiles" counts. The
    /// *average congestion metric* ("taking the worst 20% congested nets
    /// and averaging the congestion number of all routing tiles these
    /// nets pass through") takes the fifth of the nets with the highest
    /// peaks (ties to the lower net id), visits them highest peak first
    /// and averages the utilization of every tile in their boxes, as a
    /// percentage.
    pub fn report(&self) -> CongestionReport {
        let grid = self.to_grid();
        let mut peaks: Vec<(f64, usize)> = self
            .net_boxes
            .iter()
            .enumerate()
            .map(|(net, &net_box)| {
                let mut peak = 0.0f64;
                self.for_each_tile(net_box, |tile| peak = peak.max(grid[tile]));
                (peak, net)
            })
            .collect();
        let nets_through = |t: f64| peaks.iter().filter(|&&(peak, _)| peak >= t).count();
        let (nets_through_100pct, nets_through_90pct) = (nets_through(1.0), nets_through(0.9));

        let mut average_congestion_pct = 0.0;
        if !peaks.is_empty() {
            // Selecting the worst fifth and sorting only it gives the set
            // and the order a full sort would: the order is total.
            let worst_first =
                |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
            let take = (peaks.len() / 5).max(1);
            peaks.select_nth_unstable_by(take - 1, worst_first);
            let worst = &mut peaks[..take];
            worst.sort_unstable_by(worst_first);
            let mut sum = 0.0;
            let mut count = 0usize;
            for &(_, net) in worst.iter() {
                self.for_each_tile(self.net_boxes[net], |tile| {
                    sum += grid[tile];
                    count += 1;
                });
            }
            average_congestion_pct = 100.0 * sum / count.max(1) as f64;
        }
        CongestionReport {
            nets_through_100pct,
            nets_through_90pct,
            average_congestion_pct,
            max_utilization: self.max_utilization(),
            mean_utilization: self.mean_utilization(),
        }
    }

    /// Calls `f` with the row-major index of every tile in a net's tile
    /// box, row by row.
    fn for_each_tile(&self, (x0, y0, x1, y1): (u16, u16, u16, u16), mut f: impl FnMut(usize)) {
        for ty in y0 as usize..=y1 as usize {
            for tx in x0 as usize..=x1 as usize {
                f(ty * self.tiles + tx);
            }
        }
    }

    /// Row-major utilization values, for heatmap rendering.
    pub fn to_grid(&self) -> Vec<f64> {
        (0..self.tiles * self.tiles)
            .map(|i| (self.h_demand[i] / self.h_capacity).max(self.v_demand[i] / self.v_capacity))
            .collect()
    }
}

/// Summary congestion statistics (the paper's §5.1.3 numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CongestionReport {
    /// Nets passing through ≥ 100% utilized tiles.
    pub nets_through_100pct: usize,
    /// Nets passing through ≥ 90% utilized tiles.
    pub nets_through_90pct: usize,
    /// Average congestion metric (percent), worst-20%-nets definition.
    pub average_congestion_pct: f64,
    /// Peak tile utilization.
    pub max_utilization: f64,
    /// Mean tile utilization.
    pub mean_utilization: f64,
}

impl std::fmt::Display for CongestionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nets≥100%: {}  nets≥90%: {}  avg-cong: {:.0}%  peak: {:.2}  mean: {:.2}",
            self.nets_through_100pct,
            self.nets_through_90pct,
            self.average_congestion_pct,
            self.max_utilization,
            self.mean_utilization
        )
    }
}

/// A net's float and tile bounding boxes.
#[derive(Debug, Clone, Copy)]
struct NetGeom {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    tx0: usize,
    ty0: usize,
    tx1: usize,
    ty1: usize,
}

impl NetGeom {
    /// The tile box as the map keeps it.
    fn tile_box(&self) -> (u16, u16, u16, u16) {
        (self.tx0 as u16, self.ty0 as u16, self.tx1 as u16, self.ty1 as u16)
    }
}

/// Tile-index bounding boxes `(x0, y0, x1, y1)`, one per net.
type NetBoxes = Vec<(u16, u16, u16, u16)>;

/// The geometry of `net` on a `t`-tile-wide grid of `tw × th` tiles: its
/// bounding box, folded over its pins in pin order with `min`/`max`
/// (which skip NaN), and the tiles of the box's corners. `None` when the
/// folded box is inverted on either axis: the net has no pins, or every
/// pin's coordinate on that axis is NaN. [`estimate`]'s prepass and its
/// stripe pass both call it, so both see the same bits.
fn net_geometry(
    netlist: &Netlist,
    placement: &Placement,
    net: NetId,
    t: usize,
    tw: f64,
    th: f64,
) -> Option<NetGeom> {
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &c in netlist.net_cells(net) {
        let (x, y) = placement.position(c);
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if x0 > x1 || y0 > y1 {
        return None;
    }
    let tile_of = |x: f64, y: f64| -> (usize, usize) {
        (((x / tw) as usize).min(t - 1), ((y / th) as usize).min(t - 1))
    };
    let (tx0, ty0) = tile_of(x0, y0);
    let (tx1, ty1) = tile_of(x1, y1);
    Some(NetGeom { x0, y0, x1, y1, tx0, ty0, tx1, ty1 })
}

/// [`estimate_reference`]'s serial O(pins) prepass, which builds the
/// table of every net's geometry: net tile boxes (for every net,
/// including degenerate ones) and deposit geometry (for routable nets
/// only). A net whose folded box is inverted on either axis (every pin
/// NaN on it) gets the box of a net without pins and no geometry.
fn net_geometry_table(
    netlist: &Netlist,
    placement: &Placement,
    t: usize,
    tw: f64,
    th: f64,
) -> (NetBoxes, Vec<Option<NetGeom>>) {
    let mut net_boxes = Vec::with_capacity(netlist.num_nets());
    let mut geoms = Vec::with_capacity(netlist.num_nets());
    let tile_of = |x: f64, y: f64| -> (usize, usize) {
        (((x / tw) as usize).min(t - 1), ((y / th) as usize).min(t - 1))
    };
    for net in netlist.nets() {
        let cells = netlist.net_cells(net);
        if cells.is_empty() {
            net_boxes.push((0, 0, 0, 0));
            geoms.push(None);
            continue;
        }
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        for &c in cells {
            let (x, y) = placement.position(c);
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if x0 > x1 || y0 > y1 {
            net_boxes.push((0, 0, 0, 0));
            geoms.push(None);
            continue;
        }
        let (tx0, ty0) = tile_of(x0, y0);
        let (tx1, ty1) = tile_of(x1, y1);
        net_boxes.push((tx0 as u16, ty0 as u16, tx1 as u16, ty1 as u16));
        geoms.push((cells.len() >= 2).then_some(NetGeom { x0, y0, x1, y1, tx0, ty0, tx1, ty1 }));
    }
    (net_boxes, geoms)
}

/// Deposits `net`'s routing demand into one stripe's slab (`rows` tile
/// rows; slab row 0 is tile row `rows.start`). Called with the full row
/// range by the serial reference and with single stripes by the batched
/// pass — per tile, both produce the identical addition sequence.
#[allow(clippy::too_many_arguments)]
fn deposit_net(
    netlist: &Netlist,
    placement: &Placement,
    model: DemandModel,
    net: NetId,
    geom: &NetGeom,
    h_slab: &mut [f64],
    v_slab: &mut [f64],
    t: usize,
    tw: f64,
    th: f64,
    rows: &Range<usize>,
) {
    match model {
        DemandModel::Rudy => {
            // Wirelength (w + h) smeared over the box area: each tile
            // in the box receives demand ∝ its overlap share.
            let w = (geom.x1 - geom.x0).max(tw * 0.25);
            let h = (geom.y1 - geom.y0).max(th * 0.25);
            let tiles_covered = ((geom.tx1 - geom.tx0 + 1) * (geom.ty1 - geom.ty0 + 1)) as f64;
            let hd = w / tiles_covered;
            let vd = h / tiles_covered;
            for ty in geom.ty0.max(rows.start)..=geom.ty1.min(rows.end - 1) {
                let base = (ty - rows.start) * t;
                for tx in geom.tx0..=geom.tx1 {
                    h_slab[base + tx] += hd;
                    v_slab[base + tx] += vd;
                }
            }
        }
        DemandModel::LShape => {
            // Star topology: route every pin to the first pin with two
            // half-probability L routes. Raw star wire grows linearly
            // with fanout while a router builds a Steiner tree, so the
            // per-route deposits are scaled by `q(k) / (k - 1)` (RISA
            // fanout correction) — without it one 100-pin hub tile
            // dwarfs the whole map.
            let cells = netlist.net_cells(net);
            let weight = risa_weight(cells.len()) / (cells.len() - 1) as f64;
            let (sx, sy) = placement.position(cells[0]);
            for &c in &cells[1..] {
                let (px, py) = placement.position(c);
                deposit_l(h_slab, v_slab, t, tw, th, sx, sy, px, py, weight, rows);
            }
        }
    }
}

/// Auto-calibrates capacities against the mean demand (or passes explicit
/// ones through) and assembles the map.
fn finish_map(
    config: &RoutingConfig,
    t: usize,
    h_demand: Vec<f64>,
    v_demand: Vec<f64>,
    net_boxes: Vec<(u16, u16, u16, u16)>,
) -> CongestionMap {
    let mean_h = h_demand.iter().sum::<f64>() / (t * t) as f64;
    let mean_v = v_demand.iter().sum::<f64>() / (t * t) as f64;
    let h_capacity = config.h_capacity.unwrap_or_else(|| (mean_h / config.target_mean).max(1e-9));
    let v_capacity = config.v_capacity.unwrap_or_else(|| (mean_v / config.target_mean).max(1e-9));
    CongestionMap { tiles: t, h_demand, v_demand, h_capacity, v_capacity, net_boxes }
}

/// Estimates routing congestion for a placed netlist with the
/// stripe-batched pass (see the [module docs](self)).
///
/// # Panics
///
/// Panics if the placement does not cover the netlist or `tiles == 0`.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
/// use gtl_place::congestion::{estimate, RoutingConfig};
/// use gtl_place::{Die, Placement};
///
/// let mut b = NetlistBuilder::new();
/// let a = b.add_cell("a", 1.0);
/// let c = b.add_cell("b", 1.0);
/// b.add_anonymous_net([a, c]);
/// let nl = b.finish();
/// let die = Die { width: 8.0, height: 8.0, rows: 8 };
/// let p = Placement::from_coords(vec![1.0, 7.0], vec![1.0, 7.0]);
/// let cfg = RoutingConfig { tiles: 4, ..RoutingConfig::default() };
/// let map = estimate(&nl, &p, &die, &cfg);
/// assert!(map.utilization(1, 1) > 0.0); // inside the net's bbox
/// ```
pub fn estimate(
    netlist: &Netlist,
    placement: &Placement,
    die: &Die,
    config: &RoutingConfig,
) -> CongestionMap {
    match estimate_impl(netlist, placement, die, config, None) {
        Ok(map) => map,
        Err(_) => unreachable!("an estimate without a token cannot be cancelled"),
    }
}

/// [`estimate`] polling `token` between tile stripes: a fired token makes
/// the pass return [`Cancelled`](gtl_core::cancel::Cancelled) (workers finish the stripe they are on).
/// A token that never fires yields a map identical to [`estimate`] (same
/// code path).
///
/// # Errors
///
/// [`Cancelled`](gtl_core::cancel::Cancelled) once the token fires.
///
/// # Panics
///
/// Panics if the placement does not cover the netlist or `tiles == 0`,
/// like [`estimate`].
pub fn estimate_cancellable(
    netlist: &Netlist,
    placement: &Placement,
    die: &Die,
    config: &RoutingConfig,
    token: &gtl_core::cancel::CancelToken,
) -> Result<CongestionMap, gtl_core::cancel::Cancelled> {
    estimate_impl(netlist, placement, die, config, Some(token))
}

/// The shared striped pass behind [`estimate`] and
/// [`estimate_cancellable`].
fn estimate_impl(
    netlist: &Netlist,
    placement: &Placement,
    die: &Die,
    config: &RoutingConfig,
    token: Option<&gtl_core::cancel::CancelToken>,
) -> Result<CongestionMap, gtl_core::cancel::Cancelled> {
    assert!(placement.len() >= netlist.num_cells(), "placement smaller than netlist");
    assert!(config.tiles > 0, "tiles must be positive");
    let t = config.tiles;
    let tw = die.width / t as f64;
    let th = die.height / t as f64;

    let geometry = |net: NetId| net_geometry(netlist, placement, net, t, tw, th);
    let net_boxes: NetBoxes =
        netlist.nets().map(|net| geometry(net).map_or((0, 0, 0, 0), |g| g.tile_box())).collect();

    // Bin routable (≥ 2-pin) nets to the stripes their tile box crosses
    // (counting order keeps each stripe's list ascending by net id).
    let row_stripes = stripes(t, STRIPE_ROWS);
    let mut stripe_nets: Vec<Vec<u32>> = vec![Vec::new(); row_stripes.len()];
    for (net, &(_, ty0, _, ty1)) in netlist.nets().zip(&net_boxes) {
        if netlist.net_cells(net).len() >= 2 {
            let (first, last) = (ty0 as usize / STRIPE_ROWS, ty1 as usize / STRIPE_ROWS);
            for list in &mut stripe_nets[first..=last] {
                list.push(net.raw());
            }
        }
    }

    // One batched pass: each stripe accumulates its own slab pair (the
    // slab doubles as the returned result, so it is allocated exactly
    // once — no shared grid, no per-net allocation, no copy-out). A
    // binned net whose box is inverted deposits nothing.
    let stripe_pass = |s: usize| {
        let rows = &row_stripes[s];
        let len = rows.len() * t;
        let mut h_acc = vec![0.0f64; len];
        let mut v_acc = vec![0.0f64; len];
        for &net in &stripe_nets[s] {
            let net = NetId::new(net as usize);
            if let Some(geom) = geometry(net) {
                deposit_net(
                    netlist,
                    placement,
                    config.model,
                    net,
                    &geom,
                    &mut h_acc,
                    &mut v_acc,
                    t,
                    tw,
                    th,
                    rows,
                );
            }
        }
        (h_acc, v_acc)
    };
    let slabs: Vec<(Vec<f64>, Vec<f64>)> = run_map(
        config.threads,
        row_stripes.len(),
        Granularity::Auto,
        token,
        |_| (),
        |(), s| stripe_pass(s),
    )?;

    // Stitch stripe slabs into the full grid (each tile row belongs to
    // exactly one stripe).
    let mut h_demand = vec![0.0f64; t * t];
    let mut v_demand = vec![0.0f64; t * t];
    for (s, (h_slab, v_slab)) in slabs.iter().enumerate() {
        let rows = &row_stripes[s];
        h_demand[rows.start * t..rows.end * t].copy_from_slice(h_slab);
        v_demand[rows.start * t..rows.end * t].copy_from_slice(v_slab);
    }

    Ok(finish_map(config, t, h_demand, v_demand, net_boxes))
}

/// The serial per-net reference estimator: every net deposits into one
/// global grid, in net order — the pre-sharding implementation, kept as
/// the oracle that [`estimate`] must match bit-for-bit (see the property
/// tests in `crates/place/tests/properties.rs`).
///
/// # Panics
///
/// Panics if the placement does not cover the netlist or `tiles == 0`.
pub fn estimate_reference(
    netlist: &Netlist,
    placement: &Placement,
    die: &Die,
    config: &RoutingConfig,
) -> CongestionMap {
    assert!(placement.len() >= netlist.num_cells(), "placement smaller than netlist");
    assert!(config.tiles > 0, "tiles must be positive");
    let t = config.tiles;
    let tw = die.width / t as f64;
    let th = die.height / t as f64;

    let (net_boxes, geoms) = net_geometry_table(netlist, placement, t, tw, th);
    let mut h_demand = vec![0.0f64; t * t];
    let mut v_demand = vec![0.0f64; t * t];
    let all_rows = 0..t;
    for (i, geom) in geoms.iter().enumerate() {
        if let Some(g) = geom {
            deposit_net(
                netlist,
                placement,
                config.model,
                NetId::new(i),
                g,
                &mut h_demand,
                &mut v_demand,
                t,
                tw,
                th,
                &all_rows,
            );
        }
    }
    finish_map(config, t, h_demand, v_demand, net_boxes)
}

/// RISA net-weighting (Cheng, ICCAD'94): expected Steiner wirelength of a
/// `k`-pin net as a multiple of its bounding-box half-perimeter. Table for
/// the published pin counts, linear interpolation in between, `√k` growth
/// beyond the table.
fn risa_weight(k: usize) -> f64 {
    const TABLE: [(usize, f64); 12] = [
        (2, 1.0),
        (3, 1.0),
        (4, 1.0828),
        (5, 1.1536),
        (6, 1.2206),
        (7, 1.2823),
        (8, 1.3385),
        (9, 1.3991),
        (10, 1.4493),
        (15, 1.6899),
        (20, 1.8924),
        (50, 2.7933),
    ];
    if k <= 2 {
        return 1.0;
    }
    for pair in TABLE.windows(2) {
        let ((k0, q0), (k1, q1)) = (pair[0], pair[1]);
        if k <= k1 {
            let frac = (k - k0) as f64 / (k1 - k0) as f64;
            return q0 + frac * (q1 - q0);
        }
    }
    2.7933 * (k as f64 / 50.0).sqrt()
}

/// Deposits the two one-bend routes between `(ax, ay)` and `(bx, by)`,
/// each with probability ½ and scaled by `weight`: horizontal span on both
/// end rows, vertical span on both end columns, each tile receiving the
/// actual segment length crossing it. Only the tile rows in `rows` are
/// written (slab row 0 = tile row `rows.start`), so the same routine
/// serves the serial reference (full range) and the striped pass.
#[allow(clippy::too_many_arguments)]
fn deposit_l(
    h_slab: &mut [f64],
    v_slab: &mut [f64],
    t: usize,
    tw: f64,
    th: f64,
    ax: f64,
    ay: f64,
    bx: f64,
    by: f64,
    weight: f64,
    rows: &Range<usize>,
) {
    let (x0, x1) = (ax.min(bx), ax.max(bx));
    let (y0, y1) = (ay.min(by), ay.max(by));
    let (tx0, tx1) = (((x0 / tw) as usize).min(t - 1), ((x1 / tw) as usize).min(t - 1));
    let (ty0, ty1) = (((y0 / th) as usize).min(t - 1), ((y1 / th) as usize).min(t - 1));
    let ta = ((ay / th) as usize).min(t - 1);
    let tb = ((by / th) as usize).min(t - 1);
    // Horizontal segments on row of a (route 1) and row of b (route 2).
    // Each tile receives the actual length of the segment crossing it (in
    // the same wirelength units RUDY deposits), not a full tile width —
    // otherwise sub-tile nets in tangled clusters are overweighted by
    // `tw / |dx|` and one cluster tile dwarfs the rest of the map.
    let (in_a, in_b) = (rows.contains(&ta), rows.contains(&tb));
    if in_a || in_b {
        for tx in tx0..=tx1 {
            let lo = tx as f64 * tw;
            let overlap = (x1.min(lo + tw) - x0.max(lo)).max(0.0);
            if in_a {
                h_slab[(ta - rows.start) * t + tx] += 0.5 * weight * overlap;
            }
            if in_b {
                h_slab[(tb - rows.start) * t + tx] += 0.5 * weight * overlap;
            }
        }
    }
    let ca = ((ax / tw) as usize).min(t - 1);
    let cb = ((bx / tw) as usize).min(t - 1);
    // Vertical segments on column of b (route 1) and column of a (route 2).
    for ty in ty0.max(rows.start)..=ty1.min(rows.end - 1) {
        let lo = ty as f64 * th;
        let overlap = (y1.min(lo + th) - y0.max(lo)).max(0.0);
        v_slab[(ty - rows.start) * t + cb] += 0.5 * weight * overlap;
        v_slab[(ty - rows.start) * t + ca] += 0.5 * weight * overlap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::NetlistBuilder;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The report as three separate walks over the nets' tile boxes
    /// (two threshold counts, then the worst-fifth average after a full
    /// stable sort), kept verbatim as the oracle of the one-pass
    /// [`CongestionMap::report`].
    mod reference {
        use super::super::{CongestionMap, CongestionReport};

        /// Nets whose bounding box touches a tile with utilization ≥
        /// `threshold` (the paper's "nets passing through X% congested tiles").
        pub(super) fn nets_through_tiles_at_least(map: &CongestionMap, threshold: f64) -> usize {
            let hot: Vec<bool> = (0..map.tiles * map.tiles)
                .map(|i| {
                    (map.h_demand[i] / map.h_capacity).max(map.v_demand[i] / map.v_capacity)
                        >= threshold
                })
                .collect();
            map.net_boxes
                .iter()
                .filter(|&&(x0, y0, x1, y1)| {
                    (y0..=y1)
                        .any(|ty| (x0..=x1).any(|tx| hot[ty as usize * map.tiles + tx as usize]))
                })
                .count()
        }

        /// The paper's *average congestion metric*: take the worst 20% of nets
        /// (by peak bounding-box utilization) and average the utilization of
        /// all tiles those nets pass through. Returned as a percentage.
        pub(super) fn average_congestion_metric(map: &CongestionMap) -> f64 {
            if map.net_boxes.is_empty() {
                return 0.0;
            }
            let mut peaks: Vec<(f64, usize)> = map
                .net_boxes
                .iter()
                .enumerate()
                .map(|(i, &(x0, y0, x1, y1))| {
                    let mut peak = 0.0f64;
                    for ty in y0..=y1 {
                        for tx in x0..=x1 {
                            peak = peak.max(map.utilization(tx as usize, ty as usize));
                        }
                    }
                    (peak, i)
                })
                .collect();
            peaks.sort_by(|a, b| b.0.total_cmp(&a.0));
            let take = (peaks.len() / 5).max(1);
            let mut sum = 0.0;
            let mut count = 0usize;
            for &(_, i) in peaks.iter().take(take) {
                let (x0, y0, x1, y1) = map.net_boxes[i];
                for ty in y0..=y1 {
                    for tx in x0..=x1 {
                        sum += map.utilization(tx as usize, ty as usize);
                        count += 1;
                    }
                }
            }
            100.0 * sum / count.max(1) as f64
        }

        /// The paper's three §5.1.3 numbers as a bundle.
        pub(super) fn report(map: &CongestionMap) -> CongestionReport {
            CongestionReport {
                nets_through_100pct: nets_through_tiles_at_least(map, 1.0),
                nets_through_90pct: nets_through_tiles_at_least(map, 0.9),
                average_congestion_pct: average_congestion_metric(map),
                max_utilization: map.max_utilization(),
                mean_utilization: map.mean_utilization(),
            }
        }
    }

    /// A random map: demands from a few levels, the first ones likeliest
    /// (so peaks tie, and most may be zeros of either sign), or drawn
    /// freely; levels that land tiles exactly on 90% and 100%; a zero
    /// capacity now and then (infinite and NaN utilizations); and random
    /// net boxes from one tile to the whole grid.
    fn random_map(tiles: usize, nets: usize, levels: usize, rng: &mut SmallRng) -> CongestionMap {
        const LEVELS: [f64; 6] = [0.0, -0.0, 1.8, 2.0, 0.6, 3.3];
        let capacity = |rng: &mut SmallRng| if rng.gen_bool(0.05) { 0.0 } else { 2.0 };
        let demand = |rng: &mut SmallRng| {
            if levels < LEVELS.len() {
                LEVELS[rng.gen_range(0..levels).min(rng.gen_range(0..levels))]
            } else {
                rng.gen_range(0.0..3.0)
            }
        };
        let h_capacity = capacity(rng);
        let v_capacity = capacity(rng);
        let h_demand = (0..tiles * tiles).map(|_| demand(rng)).collect();
        let v_demand = (0..tiles * tiles).map(|_| demand(rng)).collect();
        let span = |rng: &mut SmallRng| {
            let (a, b) = (rng.gen_range(0..tiles as u16), rng.gen_range(0..tiles as u16));
            (a.min(b), a.max(b))
        };
        let net_boxes = (0..nets)
            .map(|_| {
                let ((x0, x1), (y0, y1)) = (span(rng), span(rng));
                (x0, y0, x1, y1)
            })
            .collect();
        CongestionMap { tiles, h_demand, v_demand, h_capacity, v_capacity, net_boxes }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass report reproduces the three-walk oracle: the same
        /// counts, and the same bits of every float.
        #[test]
        fn one_pass_report_matches_oracle_bit_for_bit(
            tiles in 1usize..10,
            nets in 0usize..120,
            levels in 1usize..7,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let map = random_map(tiles, nets, levels, &mut rng);
            let (got, want) = (map.report(), reference::report(&map));
            prop_assert_eq!(got.nets_through_100pct, want.nets_through_100pct);
            prop_assert_eq!(got.nets_through_90pct, want.nets_through_90pct);
            prop_assert_eq!(
                got.average_congestion_pct.to_bits(),
                want.average_congestion_pct.to_bits()
            );
            prop_assert_eq!(got.max_utilization.to_bits(), want.max_utilization.to_bits());
            prop_assert_eq!(got.mean_utilization.to_bits(), want.mean_utilization.to_bits());
        }
    }

    fn die() -> Die {
        Die { width: 32.0, height: 32.0, rows: 32 }
    }

    /// An `((ax, ay), (bx, by))` endpoint pair.
    type PinPair = ((f64, f64), (f64, f64));

    /// Cells at fixed positions with one net each pair.
    fn pair_netlist(pairs: &[PinPair]) -> (Netlist, Placement) {
        let mut b = NetlistBuilder::new();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (i, &((ax, ay), (bx, by))) in pairs.iter().enumerate() {
            let ca = b.add_cell(format!("a{i}"), 1.0);
            let cb = b.add_cell(format!("b{i}"), 1.0);
            b.add_anonymous_net([ca, cb]);
            xs.extend([ax, bx]);
            ys.extend([ay, by]);
        }
        (b.finish(), Placement::from_coords(xs, ys))
    }

    #[test]
    fn rudy_concentrates_demand_in_bbox() {
        let (nl, p) = pair_netlist(&[((2.0, 2.0), (10.0, 10.0))]);
        let cfg = RoutingConfig {
            tiles: 8,
            h_capacity: Some(1.0),
            v_capacity: Some(1.0),
            ..RoutingConfig::default()
        };
        let map = estimate(&nl, &p, &die(), &cfg);
        // Tiles inside the bbox have demand; tiles far away none.
        assert!(map.utilization(0, 0) > 0.0);
        assert!(map.utilization(7, 7) == 0.0);
    }

    #[test]
    fn lshape_puts_demand_on_edges() {
        let (nl, p) = pair_netlist(&[((2.0, 2.0), (30.0, 30.0))]);
        let cfg = RoutingConfig {
            tiles: 8,
            h_capacity: Some(1.0),
            v_capacity: Some(1.0),
            model: DemandModel::LShape,
            ..RoutingConfig::default()
        };
        let map = estimate(&nl, &p, &die(), &cfg);
        // Corner rows/columns get demand; the box interior gets none.
        assert!(map.utilization(3, 0) > 0.0, "bottom edge");
        assert!(map.utilization(0, 3) > 0.0, "left edge");
        assert_eq!(map.utilization(3, 3), 0.0, "interior");
    }

    #[test]
    fn hotspot_statistics() {
        // Many nets crossing one tile create a hotspot there.
        let mut pairs = Vec::new();
        for _ in 0..50 {
            pairs.push(((15.0, 15.0), (17.0, 17.0)));
        }
        // One faraway quiet net.
        pairs.push(((0.5, 0.5), (1.5, 1.5)));
        let (nl, p) = pair_netlist(&pairs);
        let cfg = RoutingConfig {
            tiles: 16,
            h_capacity: Some(2.0),
            v_capacity: Some(2.0),
            ..RoutingConfig::default()
        };
        let map = estimate(&nl, &p, &die(), &cfg);
        assert!(map.max_utilization() >= 1.0);
        let report = map.report();
        assert_eq!(report.nets_through_100pct, 50, "the 50 clustered nets, not the quiet one");
        assert!(report.nets_through_90pct >= report.nets_through_100pct);
        assert!(report.average_congestion_pct > 0.0);
        let text = report.to_string();
        assert!(text.contains("nets≥100%"));
    }

    #[test]
    fn auto_calibration_hits_target_mean() {
        let mut pairs = Vec::new();
        for i in 0..40 {
            let x = (i % 8) as f64 * 4.0;
            let y = (i / 8) as f64 * 6.0;
            pairs.push(((x, y), (x + 3.0, y + 3.0)));
        }
        let (nl, p) = pair_netlist(&pairs);
        let cfg = RoutingConfig { tiles: 8, target_mean: 0.5, ..RoutingConfig::default() };
        let map = estimate(&nl, &p, &die(), &cfg);
        // Mean of max(h, v) ≥ target on either axis alone; sanity band.
        let mean = map.mean_utilization();
        assert!((0.3..1.2).contains(&mean), "mean {mean}");
    }

    #[test]
    fn empty_and_single_pin_nets_handled() {
        let mut b = NetlistBuilder::new();
        let c = b.add_cell("c", 1.0);
        b.add_anonymous_net([c]);
        let empty: [gtl_netlist::CellId; 0] = [];
        b.add_anonymous_net(empty);
        let nl = b.finish();
        let p = Placement::from_coords(vec![1.0], vec![1.0]);
        let map = estimate(&nl, &p, &die(), &RoutingConfig::default());
        assert_eq!(map.max_utilization(), 0.0);
        assert_eq!(map.report().nets_through_100pct, 0);
    }

    /// Asserts that two maps are the same bits: demands, capacities and
    /// net boxes.
    fn assert_same_map(got: &CongestionMap, want: &CongestionMap, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.tiles, want.tiles, "{what}");
        assert_eq!(bits(&got.h_demand), bits(&want.h_demand), "h demand: {what}");
        assert_eq!(bits(&got.v_demand), bits(&want.v_demand), "v demand: {what}");
        assert_eq!(got.h_capacity.to_bits(), want.h_capacity.to_bits(), "{what}");
        assert_eq!(got.v_capacity.to_bits(), want.v_capacity.to_bits(), "{what}");
        assert_eq!(got.net_boxes, want.net_boxes, "net boxes: {what}");
    }

    /// One cell per pin at the given `(x, y)`, and one net per pin list.
    fn pinned_netlist(nets: &[&[(f64, f64)]]) -> (Netlist, Placement) {
        let mut b = NetlistBuilder::new();
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for pins in nets {
            let first = xs.len();
            for &(x, y) in pins.iter() {
                b.add_cell(format!("c{}", xs.len()), 1.0);
                xs.push(x);
                ys.push(y);
            }
            b.add_anonymous_net((first..xs.len()).map(gtl_netlist::CellId::new));
        }
        (b.finish(), Placement::from_coords(xs, ys))
    }

    /// Pins at NaN or ±∞ never panic the estimate, and it matches the
    /// reference bit for bit: nets with every pin NaN (on both axes and
    /// on one), NaN mixed with finite pins, pins at ±∞, pinless and
    /// single-pin nets, at 1, 8 and 32 tiles, for both models, with
    /// explicit and calibrated capacities, on 1 and 2 workers. A net
    /// whose box is inverted on an axis is boxed and weighted like a net
    /// without pins.
    #[test]
    fn non_finite_positions_match_reference_without_panicking() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        // The first three nets' boxes are inverted.
        let inverted: [&[(f64, f64)]; 3] = [
            &[(nan, nan), (nan, nan)],
            &[(nan, 3.0), (nan, 20.0)],
            &[(5.0, nan), (28.0, nan), (9.0, nan)],
        ];
        let others: [&[(f64, f64)]; 9] = [
            &[(nan, nan), (4.0, 7.0), (nan, 2.0), (30.0, nan)],
            &[(nan, nan), (12.0, 12.0)],
            &[(-inf, 3.0), (inf, 9.0)],
            &[(inf, inf), (inf, inf)],
            &[(-inf, -inf), (10.0, 31.0), (nan, inf)],
            &[(2.0, 2.0), (30.0, 30.0), (16.0, 0.5)],
            &[],
            &[(nan, nan)],
            &[(7.0, 7.0)],
        ];
        let (nl, p) = pinned_netlist(&[&inverted[..], &others[..]].concat());
        let (nl_inverted, p_inverted) = pinned_netlist(&inverted);
        for tiles in [1, 8, 32] {
            for model in [DemandModel::Rudy, DemandModel::LShape] {
                for capacity in [Some(1.0), None] {
                    for threads in [1, 2] {
                        let cfg = RoutingConfig {
                            tiles,
                            h_capacity: capacity,
                            v_capacity: capacity,
                            model,
                            threads,
                            ..RoutingConfig::default()
                        };
                        let what = format!("{tiles} tiles, {model:?}, {capacity:?}, {threads}");
                        let got = estimate(&nl, &p, &die(), &cfg);
                        assert_same_map(&got, &estimate_reference(&nl, &p, &die(), &cfg), &what);
                        for net in [0, 1, 2, 9, 10] {
                            assert_eq!(got.net_boxes[net], (0, 0, 0, 0), "net {net}: {what}");
                        }
                        let map = estimate(&nl_inverted, &p_inverted, &die(), &cfg);
                        let demands = map.h_demand.iter().chain(&map.v_demand);
                        assert!(demands.into_iter().all(|&d| d == 0.0), "demand: {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn grid_export_matches_utilization() {
        let (nl, p) = pair_netlist(&[((2.0, 2.0), (10.0, 10.0))]);
        let cfg = RoutingConfig {
            tiles: 4,
            h_capacity: Some(1.0),
            v_capacity: Some(1.0),
            ..RoutingConfig::default()
        };
        let map = estimate(&nl, &p, &die(), &cfg);
        let grid = map.to_grid();
        assert_eq!(grid.len(), 16);
        assert_eq!(grid[0], map.utilization(0, 0));
    }
}

#[cfg(test)]
mod cancel_tests {
    use super::*;
    use gtl_core::cancel::{CancelReason, CancelToken};
    use gtl_netlist::NetlistBuilder;

    fn fixture() -> (Netlist, Placement, Die, RoutingConfig) {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..16).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for i in 0..15 {
            b.add_anonymous_net([cells[i], cells[i + 1]]);
        }
        let nl = b.finish();
        let die = Die { width: 16.0, height: 16.0, rows: 16 };
        let coords: Vec<f64> = (0..16).map(|i| i as f64 + 0.5).collect();
        let p = Placement::from_coords(coords.clone(), coords);
        let cfg = RoutingConfig { tiles: 8, ..RoutingConfig::default() };
        (nl, p, die, cfg)
    }

    #[test]
    fn cancellable_estimate_with_live_token_is_identical() {
        let (nl, p, die, cfg) = fixture();
        let plain = estimate(&nl, &p, &die, &cfg);
        let token = CancelToken::new();
        let cancellable = estimate_cancellable(&nl, &p, &die, &cfg, &token).unwrap();
        assert_eq!(format!("{:?}", plain.report()), format!("{:?}", cancellable.report()));
    }

    #[test]
    fn cancelled_estimate_returns_structured_error() {
        let (nl, p, die, cfg) = fixture();
        let token = CancelToken::new();
        token.cancel();
        let err = estimate_cancellable(&nl, &p, &die, &cfg, &token).unwrap_err();
        assert_eq!(err.reason, CancelReason::Cancelled);
    }

    #[test]
    fn expired_deadline_stops_the_estimate() {
        let (nl, p, die, cfg) = fixture();
        let token =
            CancelToken::with_deadline(gtl_core::cancel::Deadline::at(std::time::Instant::now()));
        let err = estimate_cancellable(&nl, &p, &die, &cfg, &token).unwrap_err();
        assert_eq!(err.reason, CancelReason::DeadlineExceeded);
    }
}
