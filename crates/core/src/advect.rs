//! Cell advection through the diffusion velocity field (paper Eq. 7).

use crate::velocity::interpolate_velocity;
use crate::{DiffusionConfig, DiffusionEngine};
use dpm_geom::{clamp, Point, Point3, Vector, Vector3};
use dpm_netlist::{CellId, Netlist};
use dpm_par::tree_reduce;
use dpm_place::{BinGrid, Placement};

/// Movable cells per parallel advection chunk. Fixed (independent of the
/// thread count) so partial `AdvectOutcome` sums fold identically at any
/// parallelism — the bit-identical guarantee of the kernel runtime.
///
/// Sized so the per-chunk overhead (one pool dispatch and one partial
/// outcome) stays small against the per-cell work while dozens of chunks
/// stay in flight on realistic designs: at 2048 the chunks were fine
/// enough that 4 threads ran *slower* than 1 on a 256×256 / 100k-cell
/// advect (0.982×).
const CELL_CHUNK: usize = 4096;

/// Result of advecting all cells through one time step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdvectOutcome {
    /// Sum of world-space displacements this step.
    pub total_movement: f64,
    /// Number of cells that moved.
    pub moved_cells: usize,
}

impl AdvectOutcome {
    fn merge(self, other: Self) -> Self {
        Self {
            total_movement: self.total_movement + other.total_movement,
            moved_cells: self.moved_cells + other.moved_cells,
        }
    }
}

/// The bin containing coordinate `x` (in bin units) along an axis of
/// `n` bins, clamped into `0..n`.
///
/// Equal to `(x.floor().max(0.0) as usize).min(n - 1)` for every `f64`
/// — negatives, −0.0, NaN and ±∞ included — because the saturating cast
/// truncates toward zero, which is the floor for `x ≥ 0`, and sends
/// everything below 0 and NaN to 0. No `floor` call, so it stays inline.
#[inline(always)]
fn bin_index(x: f64, n: usize) -> usize {
    (x as usize).min(n - 1)
}

/// `x.floor()` without the library call: bit-equal to `f64::floor` for
/// every finite `x` in `[−2⁶³, 2⁶³)` except −0.0 (which it maps to +0.0).
/// The interpolation argument `c + 0.5` of a finite coordinate `c` is
/// never −0.0.
#[inline(always)]
fn floor_in_range(x: f64) -> f64 {
    let t = x as i64 as f64;
    if t > x {
        t - 1.0
    } else {
        t
    }
}

/// `true` when the displacement `(dx, dy)` is non-zero and has no NaN
/// component: the `dx.hypot(dy) > 0.0` test without the library call
/// (and without its libm-dependent answer for ∞ next to NaN).
#[inline(always)]
fn displaced(dx: f64, dy: f64) -> bool {
    dx.abs() + dy.abs() > 0.0
}

/// Clamps center `v` of a cell of half-extent `half` into an axis of
/// length `n`; a cell spanning the whole axis pins to its middle.
#[inline(always)]
fn lim(v: f64, half: f64, n: f64) -> f64 {
    if 2.0 * half >= n {
        n / 2.0
    } else {
        clamp(v, half, n - half)
    }
}

/// The movable cells of one diffusion run, laid out for the advect pass:
/// one structure of arrays built from the [`Netlist`] and [`Placement`]
/// at run start, whose positions advect in place step after step.
///
/// Slot `i` of every array is movable cell `ids[i]` (netlist order).
/// Cell sizes and the bin grid never change during a run, so the
/// half-extents are computed once; only the positions (and, on a stacked
/// run, the depths) move.
#[derive(Debug)]
pub(crate) struct CellTable {
    grid: BinGrid,
    ids: Vec<CellId>,
    /// Half width/height in world units.
    half_world: Vec<Vector>,
    /// Half width/height in bin units.
    half_bins: Vec<Vector>,
    /// Lower-left corners in world units — the run's current placement
    /// of the table's cells.
    pos: Vec<Point>,
    /// Center depths in global tier units; empty on a planar run.
    z: Vec<f64>,
    /// First global tier of the engine's region.
    z0: usize,
    /// Full stack height (1 on a planar run).
    global_nz: usize,
}

impl CellTable {
    /// Collects every movable cell of `netlist` at its `placement`
    /// position, with half-extents in world and `grid` bin units.
    pub(crate) fn new(netlist: &Netlist, placement: &Placement, grid: &BinGrid) -> Self {
        let ids: Vec<CellId> = netlist.movable_cell_ids().collect();
        let mut half_world = Vec::with_capacity(ids.len());
        let mut half_bins = Vec::with_capacity(ids.len());
        let mut pos = Vec::with_capacity(ids.len());
        for &id in &ids {
            let cell = netlist.cell(id);
            half_world.push(Vector::new(cell.width / 2.0, cell.height / 2.0));
            half_bins.push(Vector::new(
                cell.width / (2.0 * grid.bin_width()),
                cell.height / (2.0 * grid.bin_height()),
            ));
            pos.push(placement.get(id));
        }
        Self {
            grid: grid.clone(),
            ids,
            half_world,
            half_bins,
            pos,
            z: Vec::new(),
            z0: 0,
            global_nz: 1,
        }
    }

    /// Adds a stacked run's depth column: `z` by cell id, in global tier
    /// units, for an engine covering the tiers from `z0` of a
    /// `global_nz`-tier stack.
    pub(crate) fn stack(&mut self, z: &[f64], z0: usize, global_nz: usize) {
        self.z = self.ids.iter().map(|id| z[id.index()]).collect();
        (self.z0, self.global_nz) = (z0, global_nz);
    }

    /// Moves every cell one step of length `dt` along the velocity
    /// field: `x(n+1) = x(n) + v(x(n)) · Δt` (Eq. 7), with the velocity
    /// taken at the cell *center*, bi- (stacked: tri-) linearly
    /// interpolated when [`DiffusionConfig::interpolate`] is set, then
    /// writes the new positions back to `placement` and, on a stacked
    /// run, the depths to `depths` (indexed by cell id).
    ///
    /// Rules enforced, in order:
    ///
    /// 1. cells whose center sits in a wall or (planar, when
    ///    `respect_frozen`) frozen bin do not move;
    /// 2. the per-step displacement is clamped to
    ///    [`DiffusionConfig::max_step_displacement`] bins (CFL): by its
    ///    L∞ norm in-plane, per axis on a stack;
    /// 3. the cell is clamped so its outline stays inside the grid
    ///    region, and its depth into `[0.5, global_nz − 0.5]` (cells are
    ///    one tier deep): a cell may leave its slab, never the stack;
    /// 4. a move whose destination bin is a wall is projected onto the
    ///    axis that stays outside the wall, x first, then y, then z
    ///    (cells slide around macros, never onto them; walls are
    ///    through-stack, so the z projection succeeds whenever the
    ///    cell's own column is clear).
    ///
    /// Each cell's step depends only on its *own* position and the
    /// (fixed) velocity field, so the pass runs on the engine's worker
    /// pool with every chunk updating its own slice of positions in
    /// place and returning its own outcome partial. Chunks are
    /// fixed-size (independent of the thread count) and the partials
    /// fold in a fixed-shape tree, so results are bit-identical at every
    /// parallelism.
    ///
    /// `placement` and `depths` must hold the table's positions on entry
    /// — nothing but this pass may move the table's cells during a run.
    pub(crate) fn advect(
        &mut self,
        engine: &DiffusionEngine,
        cfg: &DiffusionConfig,
        dt: f64,
        respect_frozen: bool,
        placement: &mut Placement,
        depths: Option<&mut [f64]>,
    ) -> AdvectOutcome {
        let field = StepField::new(engine, self, cfg, dt, respect_frozen);
        let stacked = engine.ndim() == 3;
        let mut z = self.z.chunks_mut(CELL_CHUNK);
        let chunks: Vec<_> = (self.pos.chunks_mut(CELL_CHUNK))
            .map(|pos| (pos, z.next().unwrap_or_default()))
            .collect();
        let partials = engine.pool().map(chunks, |i, (pos, z)| {
            let range = i * CELL_CHUNK..i * CELL_CHUNK + pos.len();
            let cells = (pos.iter_mut())
                .zip(&self.half_world[range.clone()])
                .zip(&self.half_bins[range]);
            let mut partial = AdvectOutcome::default();
            if !stacked {
                for ((p, &hw), &hb) in cells {
                    if let Some(new_pos) = field.step(*p, hw, hb) {
                        let (dx, dy) = (new_pos.x - p.x, new_pos.y - p.y);
                        if displaced(dx, dy) {
                            *p = new_pos;
                            partial.total_movement += (dx * dx + dy * dy).sqrt();
                            partial.moved_cells += 1;
                        }
                    }
                }
                return partial;
            }
            // Stacked movement mixes units deliberately: world distance
            // in-plane plus tier count along z (tiers have no world pitch).
            for (((p, &hw), &hb), z) in cells.zip(z) {
                if let Some((new_pos, new_z)) = field.step3(*p, *z, hw, hb) {
                    let (dx, dy, dz) = (new_pos.x - p.x, new_pos.y - p.y, new_z - *z);
                    if displaced(dx.abs() + dy.abs(), dz) {
                        (*p, *z) = (new_pos, new_z);
                        partial.total_movement += (dx * dx + dy * dy).sqrt() + dz.abs();
                        partial.moved_cells += 1;
                    }
                }
            }
            partial
        });
        for (&id, &p) in self.ids.iter().zip(&self.pos) {
            placement.set(id, p);
        }
        if let Some(out) = depths {
            for (&id, &z) in self.ids.iter().zip(&self.z) {
                out[id.index()] = z;
            }
        }
        tree_reduce(partials, AdvectOutcome::merge).unwrap_or_default()
    }
}

/// Everything one advect pass reads besides the cell itself: the
/// velocity field and masks straight from the engine's buffers, the
/// world↔bin transform and the step parameters.
struct StepField<'a> {
    engine: &'a DiffusionEngine,
    nx: usize,
    ny: usize,
    wall: &'a [bool],
    /// The frozen mask when the pass respects it.
    frozen: Option<&'a [bool]>,
    vx: &'a [f64],
    vy: &'a [f64],
    vz: &'a [f64],
    origin: Point,
    bin_w: f64,
    bin_h: f64,
    /// The engine region's first global tier and the stack height.
    z0: f64,
    global_nz: f64,
    dt: f64,
    max_step: f64,
    interpolate: bool,
}

impl<'a> StepField<'a> {
    fn new(
        engine: &'a DiffusionEngine,
        table: &CellTable,
        cfg: &DiffusionConfig,
        dt: f64,
        respect_frozen: bool,
    ) -> Self {
        let [vx, vy, vz] = engine.velocity_field();
        let region = table.grid.region();
        Self {
            engine,
            nx: engine.nx(),
            ny: engine.ny(),
            wall: engine.wall_mask(),
            frozen: respect_frozen.then(|| engine.frozen_mask()),
            vx,
            vy,
            vz,
            origin: Point::new(region.llx, region.lly),
            bin_w: table.grid.bin_width(),
            bin_h: table.grid.bin_height(),
            z0: table.z0 as f64,
            global_nz: table.global_nz as f64,
            dt,
            max_step: cfg.max_step_displacement,
            interpolate: cfg.interpolate,
        }
    }

    /// Flat index of the bin containing bin-coordinate point `(x, y)`.
    #[inline(always)]
    fn bin(&self, x: f64, y: f64) -> usize {
        bin_index(y, self.ny) * self.nx + bin_index(x, self.nx)
    }

    /// Flat index of the bin containing `(x, y)` at region-local depth `zl`.
    #[inline(always)]
    fn bin3(&self, x: f64, y: f64, zl: f64) -> usize {
        bin_index(zl, self.engine.nz()) * self.ny * self.nx + self.bin(x, y)
    }

    /// Eq. 6 at bin-coordinate point `(x, y)`: the bilinear blend of the
    /// four nearest bin-center velocities, edge bins replicated outward
    /// (the same arithmetic as [`DiffusionEngine::velocity_at`]).
    #[inline(always)]
    fn velocity_at(&self, x: f64, y: f64) -> Vector {
        let (xs, ys) = (x + 0.5, y + 0.5);
        let (fx, fy) = (floor_in_range(xs), floor_in_range(ys));
        let (pj, qk) = (fx as isize - 1, fy as isize - 1);
        let last_j = self.nx as isize - 1;
        let last_k = self.ny as isize - 1;
        let (j0, j1) = (
            pj.clamp(0, last_j) as usize,
            (pj + 1).clamp(0, last_j) as usize,
        );
        let (k0, k1) = (
            qk.clamp(0, last_k) as usize,
            (qk + 1).clamp(0, last_k) as usize,
        );
        let at = |j: usize, k: usize| {
            let i = k * self.nx + j;
            Vector::new(self.vx[i], self.vy[i])
        };
        interpolate_velocity(
            at(j0, k0),
            at(j1, k0),
            at(j0, k1),
            at(j1, k1),
            xs - fx,
            ys - fy,
        )
    }

    /// The world corner of a cell centered at bin coordinates `(x, y)`.
    #[inline(always)]
    fn corner(&self, x: f64, y: f64, half_world: Vector) -> Point {
        Point::new(
            self.origin.x + x * self.bin_w - half_world.x,
            self.origin.y + y * self.bin_h - half_world.y,
        )
    }

    /// One cell's step from lower-left corner `pos` with half-extents
    /// `half_world` (world units) and `half_bins` (bin units): the new
    /// corner, or `None` if the cell stays put by rule 1 or 4 or has no
    /// velocity.
    #[inline(always)]
    fn step(&self, pos: Point, half_world: Vector, half_bins: Vector) -> Option<Point> {
        let cx = (pos.x + half_world.x - self.origin.x) / self.bin_w;
        let cy = (pos.y + half_world.y - self.origin.y) / self.bin_h;
        let i = self.bin(cx, cy);
        if self.wall[i] || self.frozen.is_some_and(|f| f[i]) {
            return None;
        }
        let v = if self.interpolate {
            self.velocity_at(cx, cy)
        } else {
            Vector::new(self.vx[i], self.vy[i])
        };
        let disp = (v * self.dt).clamped_linf(self.max_step);
        if disp.linf_length() == 0.0 {
            return None;
        }

        // Keep the cell outline inside the region (all in bin coords).
        let mut tx = lim(cx + disp.x, half_bins.x, self.nx as f64);
        let mut ty = lim(cy + disp.y, half_bins.y, self.ny as f64);

        // Never step onto a macro: project the move axis-wise.
        if self.wall[self.bin(tx, ty)] {
            if !self.wall[self.bin(tx, cy)] {
                ty = cy;
            } else if !self.wall[self.bin(cx, ty)] {
                tx = cx;
            } else {
                return None;
            }
        }
        Some(self.corner(tx, ty, half_world))
    }

    /// [`step`](Self::step) for a stacked cell at global depth `z`: the
    /// new corner and depth, or `None` if the cell stays put.
    #[inline(always)]
    fn step3(&self, pos: Point, z: f64, hw: Vector, hb: Vector) -> Option<(Point, f64)> {
        let cx = (pos.x + hw.x - self.origin.x) / self.bin_w;
        let cy = (pos.y + hw.y - self.origin.y) / self.bin_h;
        let zl = z - self.z0;
        let i = self.bin3(cx, cy, zl);
        if self.wall[i] {
            return None;
        }
        let v = if self.interpolate {
            self.engine.velocity_at3(Point3::new(cx, cy, zl))
        } else {
            Vector3::new(self.vx[i], self.vy[i], self.vz[i])
        };
        let disp = (v * self.dt).clamped_linf(self.max_step);
        if disp.linf_length() == 0.0 {
            return None;
        }
        let mut tx = lim(cx + disp.x, hb.x, self.nx as f64);
        let mut ty = lim(cy + disp.y, hb.y, self.ny as f64);
        // Depths stay global and clamp against the full stack.
        let mut tz = lim(z + disp.z, 0.5, self.global_nz);
        if self.wall[self.bin3(tx, ty, tz - self.z0)] {
            if !self.wall[self.bin3(tx, cy, zl)] {
                (ty, tz) = (cy, z);
            } else if !self.wall[self.bin3(cx, ty, zl)] {
                (tx, tz) = (cx, z);
            } else if !self.wall[self.bin3(cx, cy, tz - self.z0)] {
                (tx, ty) = (cx, cy);
            } else {
                return None;
            }
        }
        Some((self.corner(tx, ty, hw), tz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VolPlacement;
    use dpm_geom::Rect;
    use dpm_netlist::{CellKind, NetlistBuilder};
    use dpm_par::chunk_ranges;
    use dpm_rng::Rng;

    /// The per-call advect path the cell table replaced, kept as the
    /// reference the table is checked against: every cell reached
    /// through the [`Netlist`] and [`Placement`], the `floor`-based
    /// [`bin_of`] and [`DiffusionEngine::velocity_at`], `hypot` for the
    /// distance, partials summed per [`CELL_CHUNK`] and tree-folded.
    fn advect_cells_reference(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &mut Placement,
        cfg: &DiffusionConfig,
        respect_frozen: bool,
    ) -> AdvectOutcome {
        let ids: Vec<CellId> = netlist.movable_cell_ids().collect();
        let mut partials = Vec::new();
        for range in chunk_ranges(ids.len(), CELL_CHUNK) {
            let mut partial = AdvectOutcome::default();
            for &cell_id in &ids[range] {
                let planned = advect_one(
                    engine,
                    grid,
                    netlist,
                    placement,
                    cfg,
                    respect_frozen,
                    cell_id,
                );
                if let Some((new_pos, dist)) = planned {
                    placement.set(cell_id, new_pos);
                    partial.total_movement += dist;
                    partial.moved_cells += 1;
                }
            }
            partials.push(partial);
        }
        tree_reduce(partials, AdvectOutcome::merge).unwrap_or_default()
    }

    /// One cell's reference step: the new position and the distance
    /// moved, or `None` if the cell stays put.
    fn advect_one(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &Placement,
        cfg: &DiffusionConfig,
        respect_frozen: bool,
        cell_id: CellId,
    ) -> Option<(Point, f64)> {
        let nx = engine.nx() as f64;
        let ny = engine.ny() as f64;
        let cell = netlist.cell(cell_id);
        let old_pos = placement.get(cell_id);
        let center_world = Point::new(old_pos.x + cell.width / 2.0, old_pos.y + cell.height / 2.0);
        let c = grid.to_bin_coords(center_world);

        let (j, k) = bin_of(c, engine);
        if engine.is_wall(j, k) {
            return None;
        }
        if respect_frozen && engine.is_frozen(j, k) {
            return None;
        }

        let v = if cfg.interpolate {
            engine.velocity_at(c)
        } else {
            engine.bin_velocity(j, k)
        };
        let disp = (v * cfg.dt).clamped_linf(cfg.max_step_displacement);
        if disp.linf_length() == 0.0 {
            return None;
        }

        let half_w = cell.width / (2.0 * grid.bin_width());
        let half_h = cell.height / (2.0 * grid.bin_height());
        let lim = |v: f64, half: f64, n: f64| {
            if 2.0 * half >= n {
                n / 2.0
            } else {
                clamp(v, half, n - half)
            }
        };
        let mut target = Point::new(lim(c.x + disp.x, half_w, nx), lim(c.y + disp.y, half_h, ny));

        let (tj, tk) = bin_of(target, engine);
        if engine.is_wall(tj, tk) {
            let x_only = Point::new(target.x, c.y);
            let (xj, xk) = bin_of(x_only, engine);
            let y_only = Point::new(c.x, target.y);
            let (yj, yk) = bin_of(y_only, engine);
            if !engine.is_wall(xj, xk) {
                target = x_only;
            } else if !engine.is_wall(yj, yk) {
                target = y_only;
            } else {
                return None;
            }
        }

        let new_center_world = grid.to_world_coords(target);
        let new_pos = Point::new(
            new_center_world.x - cell.width / 2.0,
            new_center_world.y - cell.height / 2.0,
        );
        let dist = (new_pos - old_pos).length();
        if dist > 0.0 {
            Some((new_pos, dist))
        } else {
            None
        }
    }

    /// The reference's (clamped) bin containing a point in bin
    /// coordinates.
    fn bin_of(p: Point, engine: &DiffusionEngine) -> (usize, usize) {
        let j = (p.x.floor().max(0.0) as usize).min(engine.nx() - 1);
        let k = (p.y.floor().max(0.0) as usize).min(engine.ny() - 1);
        (j, k)
    }

    /// The serial per-call volumetric advect the stacked table replaced,
    /// kept as its reference: every movable cell in netlist order,
    /// [`DiffusionEngine::velocity_at3`] for the velocity, `hypot` plus
    /// `|Δz|` for the movement, summed serially.
    fn advect_cells3(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &mut VolPlacement,
        cfg: &DiffusionConfig,
        z0: usize,
        global_nz: usize,
    ) -> AdvectOutcome {
        let nx = engine.nx() as f64;
        let ny = engine.ny() as f64;
        let gz = global_nz as f64;
        let mut outcome = AdvectOutcome::default();
        for cell_id in netlist.movable_cell_ids() {
            let cell = netlist.cell(cell_id);
            let old_pos = placement.xy.get(cell_id);
            let old_z = placement.z[cell_id.index()];
            let center = Point::new(old_pos.x + cell.width / 2.0, old_pos.y + cell.height / 2.0);
            let c = grid.to_bin_coords(center);
            let zl = old_z - z0 as f64;
            let (j, k, t) = bin3_of(c.x, c.y, zl, engine);
            if engine.is_wall3(j, k, t) {
                continue;
            }
            let v = if cfg.interpolate {
                engine.velocity_at3(Point3::new(c.x, c.y, zl))
            } else {
                engine.bin_velocity3(j, k, t)
            };
            let disp = (v * cfg.dt).clamped_linf(cfg.max_step_displacement);
            if disp.linf_length() == 0.0 {
                continue;
            }
            let half_w = cell.width / (2.0 * grid.bin_width());
            let half_h = cell.height / (2.0 * grid.bin_height());
            let lim = |v: f64, half: f64, n: f64| {
                if 2.0 * half >= n {
                    n / 2.0
                } else {
                    clamp(v, half, n - half)
                }
            };
            let mut tx = lim(c.x + disp.x, half_w, nx);
            let mut ty = lim(c.y + disp.y, half_h, ny);
            let mut tz = lim(old_z + disp.z, 0.5, gz);
            let (tj, tk, tt) = bin3_of(tx, ty, tz - z0 as f64, engine);
            if engine.is_wall3(tj, tk, tt) {
                let (xj, xk, xt) = bin3_of(tx, c.y, zl, engine);
                let (yj, yk, yt) = bin3_of(c.x, ty, zl, engine);
                let (zj, zk, zt) = bin3_of(c.x, c.y, tz - z0 as f64, engine);
                if !engine.is_wall3(xj, xk, xt) {
                    ty = c.y;
                    tz = old_z;
                } else if !engine.is_wall3(yj, yk, yt) {
                    tx = c.x;
                    tz = old_z;
                } else if !engine.is_wall3(zj, zk, zt) {
                    tx = c.x;
                    ty = c.y;
                } else {
                    continue;
                }
            }
            let new_center = grid.to_world_coords(Point::new(tx, ty));
            let new_pos = Point::new(
                new_center.x - cell.width / 2.0,
                new_center.y - cell.height / 2.0,
            );
            let dist = (new_pos - old_pos).length() + (tz - old_z).abs();
            if dist > 0.0 {
                placement.xy.set(cell_id, new_pos);
                placement.z[cell_id.index()] = tz;
                outcome.total_movement += dist;
                outcome.moved_cells += 1;
            }
        }
        outcome
    }

    /// The reference's (clamped) bin containing a point: x/y in bin
    /// coordinates, z in region-local tier units.
    fn bin3_of(x: f64, y: f64, zl: f64, engine: &DiffusionEngine) -> (usize, usize, usize) {
        (
            (x.floor().max(0.0) as usize).min(engine.nx() - 1),
            (y.floor().max(0.0) as usize).min(engine.ny() - 1),
            (zl.floor().max(0.0) as usize).min(engine.nz() - 1),
        )
    }

    /// One table step from the placement as it stands.
    fn advect_cells(
        engine: &DiffusionEngine,
        grid: &BinGrid,
        netlist: &Netlist,
        placement: &mut Placement,
        cfg: &DiffusionConfig,
        respect_frozen: bool,
    ) -> AdvectOutcome {
        CellTable::new(netlist, placement, grid).advect(
            engine,
            cfg,
            cfg.dt,
            respect_frozen,
            placement,
            None,
        )
    }

    /// One 2×2 cell on a 4×4 grid of 10-unit bins.
    fn setup(at_world: Point) -> (Netlist, Placement, BinGrid) {
        let mut b = NetlistBuilder::new();
        let c = b.add_cell("c", 2.0, 2.0, CellKind::Movable);
        let nl = b.build().expect("valid");
        let mut p = Placement::new(1);
        p.set(c, at_world);
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 10.0);
        (nl, p, grid)
    }

    fn engine_with_uniform_velocity(vx: f64, vy: f64) -> DiffusionEngine {
        let mut e = DiffusionEngine::from_raw(4, 4, vec![1.0; 16], None);
        for k in 0..4 {
            for j in 0..4 {
                e.set_bin_velocity(j, k, dpm_geom::Vector::new(vx, vy));
            }
        }
        e
    }

    #[test]
    fn cell_moves_along_field() {
        let (nl, mut p, grid) = setup(Point::new(14.0, 14.0));
        let e = engine_with_uniform_velocity(1.0, 0.0);
        let cfg = DiffusionConfig::default();
        let out = advect_cells(&e, &grid, &nl, &mut p, &cfg, false);
        assert_eq!(out.moved_cells, 1);
        // v = 1 bin per unit time, dt = 0.2 → 0.2 bins = 2 world units.
        let np = p.get(dpm_netlist::CellId::new(0));
        assert!((np.x - 16.0).abs() < 1e-9, "x = {}", np.x);
        assert!((np.y - 14.0).abs() < 1e-9);
        assert!((out.total_movement - 2.0).abs() < 1e-9);
    }

    #[test]
    fn displacement_is_cfl_clamped() {
        let (nl, mut p, grid) = setup(Point::new(14.0, 14.0));
        let e = engine_with_uniform_velocity(100.0, 0.0); // absurd speed
        let cfg = DiffusionConfig::default();
        advect_cells(&e, &grid, &nl, &mut p, &cfg, false);
        let np = p.get(dpm_netlist::CellId::new(0));
        // At most 1 bin = 10 world units.
        assert!(np.x - 14.0 <= 10.0 + 1e-9);
    }

    #[test]
    fn cell_never_leaves_region() {
        let (nl, mut p, grid) = setup(Point::new(36.0, 36.0));
        let e = engine_with_uniform_velocity(5.0, 5.0);
        let cfg = DiffusionConfig::default();
        let mut table = CellTable::new(&nl, &p, &grid);
        for _ in 0..20 {
            table.advect(&e, &cfg, cfg.dt, false, &mut p, None);
        }
        let r = p.cell_rect(&nl, dpm_netlist::CellId::new(0));
        assert!(grid.region().contains_rect(&r), "cell escaped: {r}");
    }

    #[test]
    fn cell_slides_around_wall() {
        let (nl, mut p, grid) = setup(Point::new(14.0, 14.0)); // center (15,15), bin (1,1)
        let mut d = vec![1.0; 16];
        d[4 + 2] = 1.0;
        let mut wall = vec![false; 16];
        wall[4 + 2] = true; // bin (2,1) east of the cell
        let mut e = DiffusionEngine::from_raw(4, 4, d, Some(wall));
        for k in 0..4 {
            for j in 0..4 {
                e.set_bin_velocity(j, k, dpm_geom::Vector::new(5.0, 5.0));
            }
        }
        let cfg = DiffusionConfig::default();
        advect_cells(&e, &grid, &nl, &mut p, &cfg, false);
        let center = p.cell_center(&nl, dpm_netlist::CellId::new(0));
        let b = grid.bin_of_point(center);
        assert!(!(b.j == 2 && b.k == 1), "cell moved onto the macro");
        // It still moved (slid north).
        assert!(center.y > 15.0);
    }

    #[test]
    fn frozen_bin_pins_cells_when_respected() {
        let (nl, mut p, grid) = setup(Point::new(14.0, 14.0));
        let mut e = engine_with_uniform_velocity(1.0, 1.0);
        let mut frozen = vec![false; 16];
        frozen[4 + 1] = true; // the cell's own bin
        e.set_frozen_mask(&frozen);
        let cfg = DiffusionConfig::default();
        let out = advect_cells(&e, &grid, &nl, &mut p, &cfg, true);
        assert_eq!(out.moved_cells, 0);
        assert_eq!(p.get(dpm_netlist::CellId::new(0)), Point::new(14.0, 14.0));
        // Without respect_frozen the cell moves.
        let out2 = advect_cells(&e, &grid, &nl, &mut p, &cfg, false);
        assert_eq!(out2.moved_cells, 1);
    }

    /// ~10000 movable cells (3 advection chunks at CELL_CHUNK = 4096)
    /// with fixed macros interleaved in id order, so table slots are
    /// not cell ids; cells on every region edge, one just outside it,
    /// one wider than the region and three diagonally off the lower-left
    /// corner of the wall block of [`bumpy_engine`]; placed over a 64×64 grid of
    /// 10-unit bins.
    fn bumpy_fixture() -> (Netlist, Placement, BinGrid) {
        let mut b = NetlistBuilder::new();
        for i in 0..10_000 {
            if i % 97 == 13 {
                b.add_cell(format!("m{i}"), 20.0, 20.0, CellKind::FixedMacro);
            }
            let (w, h) = match i {
                0 => (700.0, 4.0), // wider than the 640-unit region
                _ => (1.0 + (i % 5) as f64, 2.0 + (i % 3) as f64),
            };
            b.add_cell(format!("c{i}"), w, h, CellKind::Movable);
        }
        let nl = b.build().expect("valid");
        let grid = BinGrid::new(Rect::new(0.0, 0.0, 640.0, 640.0), 10.0);
        let mut p0 = Placement::new(nl.num_cells());
        for (i, c) in nl.cell_ids().enumerate() {
            let h = (i * 2654435761usize) % 1_000_000;
            p0.set(
                c,
                Point::new((h % 1000) as f64 * 0.63, (h / 1000) as f64 * 0.63),
            );
        }
        let edges = [
            Point::new(0.0, 300.0),
            Point::new(300.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(635.0, 200.0),
            Point::new(200.0, 636.0),
            Point::new(635.0, 636.0),
            Point::new(-7.0, 150.0),
            Point::new(297.0, 197.0),
            Point::new(298.5, 198.0),
            Point::new(296.0, 196.5),
        ];
        for (c, at) in nl.movable_cell_ids().skip(1).step_by(800).zip(edges) {
            p0.set(c, at);
        }
        (nl, p0, grid)
    }

    /// A 64×64 engine with a bumpy density, a wall block over bins
    /// 30..44 × 20..28 and a frozen stripe, velocities computed — or,
    /// with `drift`, every bin's velocity overwritten with one diagonal
    /// that drives cells into the wall block's faces and corners.
    fn bumpy_engine(threads: usize, drift: bool) -> DiffusionEngine {
        let n = 64usize;
        let density: Vec<f64> = (0..n * n)
            .map(|i| 0.25 + ((i * 2654435761usize) % 997) as f64 / 997.0)
            .collect();
        let mut wall = vec![false; n * n];
        for k in 20..28 {
            for j in 30..44 {
                wall[k * n + j] = true;
            }
        }
        let mut frozen = vec![false; n * n];
        for k in 48..56 {
            for j in 8..20 {
                frozen[k * n + j] = true;
            }
        }
        let mut e = DiffusionEngine::from_raw(n, n, density, Some(wall));
        e.set_frozen_mask(&frozen);
        e.set_threads(threads);
        e.compute_velocities();
        if drift {
            for k in 0..n {
                for j in 0..n {
                    e.set_bin_velocity(j, k, dpm_geom::Vector::new(3.0, 2.5));
                }
            }
        }
        e
    }

    /// [`bumpy_engine`] stacked 4 tiers deep: a bumpy density in every
    /// tier, the wall block raised through the stack, no frozen bins —
    /// or, with `drift`, one velocity that also drives cells up the
    /// stack.
    fn bumpy_stack(threads: usize, drift: bool) -> DiffusionEngine {
        let (n, nz) = (64usize, 4usize);
        let density: Vec<f64> = (0..n * n * nz)
            .map(|i| 0.25 + ((i * 2654435761usize) % 997) as f64 / 997.0)
            .collect();
        let mut wall = vec![false; n * n * nz];
        for z in 0..nz {
            for k in 20..28 {
                for j in 30..44 {
                    wall[(z * n + k) * n + j] = true;
                }
            }
        }
        let mut e = DiffusionEngine::from_raw_3d(n, n, nz, density, Some(wall));
        e.set_threads(threads);
        e.compute_velocities();
        if drift {
            for z in 0..nz {
                for k in 0..n {
                    for j in 0..n {
                        e.set_bin_velocity3(j, k, z, Vector3::new(3.0, 2.5, 1.5));
                    }
                }
            }
        }
        e
    }

    #[test]
    fn parallel_advection_is_bit_identical_to_serial() {
        // Several steps of one table (written back between steps) under
        // an evolving field and under a fixed drift, at every thread
        // count, with and without frozen bins and interpolation:
        // placements and moved-cell counts must match the reference
        // exactly; movement differs only by sqrt-vs-hypot rounding, and
        // is bit-identical across thread counts.
        let (nl, p0, grid) = bumpy_fixture();
        for (drift, respect_frozen, interpolate) in
            (0..8).map(|m| (m & 4 != 0, m & 2 != 0, m & 1 != 0))
        {
            let cfg = DiffusionConfig {
                interpolate,
                ..DiffusionConfig::default()
            };
            let mut per_threads = Vec::new();
            for threads in [1, 2, 4, 8] {
                let mut e = bumpy_engine(threads, drift);
                let mut p = p0.clone();
                let mut reference = p0.clone();
                let mut table = CellTable::new(&nl, &p, &grid);
                let mut outcomes = Vec::new();
                for step in 0..4 {
                    let out = table.advect(&e, &cfg, cfg.dt, respect_frozen, &mut p, None);
                    let ref_out = advect_cells_reference(
                        &e,
                        &grid,
                        &nl,
                        &mut reference,
                        &cfg,
                        respect_frozen,
                    );
                    let case = format!(
                        "step {step}, {threads} threads, drift {drift}, \
                             frozen {respect_frozen}, interpolate {interpolate}"
                    );
                    assert!(out.moved_cells > 0, "{case}: nothing moved");
                    assert_eq!(p, reference, "{case}: placement differs");
                    assert_eq!(out.moved_cells, ref_out.moved_cells, "{case}");
                    let rel = (out.total_movement - ref_out.total_movement).abs()
                        / ref_out.total_movement;
                    assert!(rel <= 1e-12, "{case}: movement off by {rel:e}");
                    outcomes.push(out);
                    if !drift {
                        e.step_density(cfg.dt);
                        e.compute_velocities();
                    }
                }
                per_threads.push((outcomes, p));
            }
            for (outcomes, p) in &per_threads[1..] {
                assert_eq!(
                    outcomes, &per_threads[0].0,
                    "outcomes differ across threads"
                );
                assert_eq!(p, &per_threads[0].1, "placements differ across threads");
            }
        }

        // The stacked kernel against `advect_cells3`: the same cells with
        // depths over a 4-tier slab at z0 = 2 of an 8-tier stack (some
        // outside the slab, some on the stack's floor and ceiling), the
        // wall block raised through the stack.
        let (z0, global_nz) = (2, 8);
        let mut vp0 = VolPlacement {
            xy: p0,
            z: vec![0.5; nl.num_cells()],
        };
        for (i, c) in nl.movable_cell_ids().enumerate() {
            vp0.z[c.index()] = match i % 50 {
                0 => 0.5,
                1 => global_nz as f64 - 0.5,
                _ => 0.5 + 7.0 * ((i * 7919) % 1000) as f64 / 1000.0,
            };
        }
        for (drift, interpolate) in (0..4).map(|m| (m & 2 != 0, m & 1 != 0)) {
            let cfg = DiffusionConfig {
                interpolate,
                ..DiffusionConfig::default()
            };
            let mut per_threads = Vec::new();
            for threads in [1, 2, 4, 8] {
                let mut e = bumpy_stack(threads, drift);
                let mut vp = vp0.clone();
                let mut reference = vp0.clone();
                let mut table = CellTable::new(&nl, &vp.xy, &grid);
                table.stack(&vp.z, z0, global_nz);
                let mut outcomes = Vec::new();
                for step in 0..4 {
                    let out = table.advect(&e, &cfg, cfg.dt, false, &mut vp.xy, Some(&mut vp.z));
                    let ref_out =
                        advect_cells3(&e, &grid, &nl, &mut reference, &cfg, z0, global_nz);
                    let case = format!(
                        "stacked step {step}, {threads} threads, drift {drift}, \
                             interpolate {interpolate}"
                    );
                    assert!(out.moved_cells > 0, "{case}: nothing moved");
                    assert_eq!(vp.xy, reference.xy, "{case}: placement differs");
                    assert_eq!(vp.z, reference.z, "{case}: depths differ");
                    assert_eq!(out.moved_cells, ref_out.moved_cells, "{case}");
                    let rel = (out.total_movement - ref_out.total_movement).abs()
                        / ref_out.total_movement;
                    assert!(rel <= 1e-12, "{case}: movement off by {rel:e}");
                    outcomes.push(out);
                    if !drift {
                        e.step_density(cfg.dt);
                        e.compute_velocities();
                    }
                }
                per_threads.push((outcomes, vp));
            }
            for (outcomes, vp) in &per_threads[1..] {
                assert_eq!(
                    outcomes, &per_threads[0].0,
                    "stacked outcomes differ across threads"
                );
                assert_eq!(vp, &per_threads[0].1, "stacked placements differ");
            }
        }
    }

    #[test]
    fn floor_free_helpers_match_libm() {
        let n = 64usize;
        let mut values = vec![
            0.0,
            -0.0,
            -0.5,
            -1e-300,
            -0.999_999_999,
            (n - 1) as f64,
            n as f64,
            (n - 1) as f64 - 1e-12,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            4503599627370496.0, // 2^52
            -4503599627370497.0,
            9223372036854774784.0,  // largest f64 below 2^63
            -9223372036854775808.0, // -2^63
        ];
        let mut rng = Rng::seed_from_u64(0xF100);
        for _ in 0..100_000 {
            let scale = [1.0, 64.0, 1e6, 1e18][rng.random_range(0..4usize)];
            values.push((rng.random_f64() * 2.0 - 1.0) * scale);
            values.push(f64::from_bits(rng.next_u64()));
        }
        for &x in &values {
            let old = (x.floor().max(0.0) as usize).min(n - 1);
            assert_eq!(bin_index(x, n), old, "bin index of {x:e}");
            let in_domain = x.is_finite()
                && (-9223372036854775808.0..9223372036854775808.0).contains(&x)
                && x.to_bits() != (-0.0f64).to_bits();
            if in_domain {
                assert_eq!(
                    floor_in_range(x).to_bits(),
                    x.floor().to_bits(),
                    "floor of {x:e}"
                );
            }
            for &y in &values[..20] {
                let expected = !x.is_nan() && !y.is_nan() && x.hypot(y) > 0.0;
                assert_eq!(displaced(x, y), expected, "displaced({x:e}, {y:e})");
            }
        }
    }

    #[test]
    fn zero_velocity_means_no_movement() {
        let (nl, mut p, grid) = setup(Point::new(14.0, 14.0));
        let e = engine_with_uniform_velocity(0.0, 0.0);
        let cfg = DiffusionConfig::default();
        let out = advect_cells(&e, &grid, &nl, &mut p, &cfg, false);
        assert_eq!(out, AdvectOutcome::default());
    }
}
