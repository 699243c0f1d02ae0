//! The ZQL execution engine (thesis Ch. 5): rows become *visual
//! components* (n-dimensional arrays of visualizations over the
//! Cartesian product of their axis variables), data is fetched through a
//! [`Database`](zv_storage::Database) with one of four batching levels
//! ([`OptLevel`]), and
//! Process-column tasks filter/sort/compare components to bind output
//! variables.

use crate::ast::*;
use crate::parser::{parse_query, ParseError};
use crate::primitives::FunctionRegistry;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zv_analytics::Series;
use zv_storage::{
    parallel, Atom, CmpOp, Column, DynDatabase, Predicate, QueryCtx, QueryKey, ResultTable,
    SelectQuery, StorageError, Table, Value, XSpec, YSpec,
};

/// Process-column scoring loops below this many combinations stay serial
/// (thread spawn costs more than the work).
const PROCESS_PARALLEL_MIN: usize = 16;

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// The external optimizations of §5.2, in increasing order of batching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// One SQL query *and* one request per visualization (§5.1's naive
    /// compiler).
    NoOpt,
    /// Batch each row's visualizations into combined GROUP-BY queries,
    /// one request per row.
    IntraLine,
    /// Additionally pipeline task-less rows into the request of the next
    /// task row.
    IntraTask,
    /// Additionally batch any later row whose inputs are already
    /// available (the query-tree coloring of §5.2).
    InterTask,
}

/// Errors surfaced by parsing or executing ZQL.
#[derive(Debug)]
pub enum ZqlError {
    Parse(ParseError),
    Storage(StorageError),
    Semantic(String),
}

impl fmt::Display for ZqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZqlError::Parse(e) => write!(f, "{e}"),
            ZqlError::Storage(e) => write!(f, "{e}"),
            ZqlError::Semantic(m) => write!(f, "semantic error: {m}"),
        }
    }
}

impl std::error::Error for ZqlError {}

impl From<ParseError> for ZqlError {
    fn from(e: ParseError) -> Self {
        ZqlError::Parse(e)
    }
}

impl From<StorageError> for ZqlError {
    fn from(e: StorageError) -> Self {
        ZqlError::Storage(e)
    }
}

fn sem(msg: impl Into<String>) -> ZqlError {
    ZqlError::Semantic(msg.into())
}

/// One output visualization.
#[derive(Clone, Debug)]
pub struct OutputViz {
    /// The component (`*f…`) this came from.
    pub component: String,
    pub x: String,
    pub y: String,
    /// Human-readable slice description, e.g. `product=chair, location=US`.
    pub label: String,
    pub spec: VizSpec,
    pub series: Series,
}

/// Execution metrics (the quantities plotted in Figures 7.1–7.4).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecReport {
    pub sql_queries: u64,
    pub requests: u64,
    pub rows_scanned: u64,
    /// Queries answered from the engine-level result cache (no scan).
    pub cache_hits: u64,
    /// Queries answered by deriving from a cached superset result
    /// (predicate subsumption / Z-slice extraction — no scan either).
    pub cache_derived_hits: u64,
    /// Queries that missed the engine-level result cache.
    pub cache_misses: u64,
    /// Queries answered by incremental view maintenance: an
    /// appended-range delta scan merged into a cached ancestor-version
    /// result (bounded scan instead of a full recompute).
    pub ivm_hits: u64,
    /// Rows visited by IVM delta scans — appended rows only, kept out
    /// of `rows_scanned`.
    pub ivm_rows_scanned: u64,
    /// Queries that returned `StorageError::Cancelled` during this
    /// execution (superseded interactions, deadlines, row budgets).
    pub queries_cancelled: u64,
    /// Morsels left unclaimed by cancelled scans — work the
    /// cancellation saved.
    pub morsels_cancelled: u64,
    /// Parallel scan attempts killed by a contained worker panic
    /// (`StorageError::WorkerPanicked`).
    pub worker_panics: u64,
    /// Queries re-attempted after a transient failure (recorded by
    /// `zv-server`'s retry policy; once per query).
    pub queries_retried: u64,
    /// Queries degraded to serial execution (retry ladder or breaker;
    /// once per query).
    pub queries_degraded: u64,
    /// Time inside the database backend.
    pub db_time: Duration,
    /// Post-processing time: distributing fetched results to component
    /// cells at each flush, plus the Process-column tasks. The rest,
    /// `total_time − db_time − compute_time`, is planning and cell
    /// materialization.
    pub compute_time: Duration,
    pub total_time: Duration,
}

/// Result of executing a ZQL query.
#[derive(Debug, Default)]
pub struct ZqlOutput {
    pub visualizations: Vec<OutputViz>,
    pub report: ExecReport,
}

/// The zenvisage back-end: a database plus the function registry.
pub struct ZqlEngine {
    db: DynDatabase,
    registry: FunctionRegistry,
    opt: OptLevel,
}

impl ZqlEngine {
    pub fn new(db: DynDatabase) -> Self {
        ZqlEngine {
            db,
            registry: FunctionRegistry::default(),
            opt: OptLevel::InterTask,
        }
    }

    pub fn with_opt_level(db: DynDatabase, opt: OptLevel) -> Self {
        ZqlEngine {
            db,
            registry: FunctionRegistry::default(),
            opt,
        }
    }

    pub fn set_opt_level(&mut self, opt: OptLevel) {
        self.opt = opt;
    }

    pub fn opt_level(&self) -> OptLevel {
        self.opt
    }

    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    pub fn registry_mut(&mut self) -> &mut FunctionRegistry {
        &mut self.registry
    }

    pub fn database(&self) -> &DynDatabase {
        &self.db
    }

    /// Execute an already-parsed query.
    pub fn execute(&self, query: &ZqlQuery) -> Result<ZqlOutput, ZqlError> {
        self.execute_with_inputs(query, &HashMap::new())
    }

    /// Execute under an explicit lifecycle ctx: every data fetch the
    /// query issues observes the ctx's cancellation token / deadline at
    /// the scan's cancellation points, and a cancelled execution
    /// surfaces as `ZqlError::Storage(StorageError::Cancelled)` — this
    /// is the hook `zv-server`'s session supersession drives.
    pub fn execute_ctx(&self, query: &ZqlQuery, ctx: &QueryCtx) -> Result<ZqlOutput, ZqlError> {
        self.execute_with_inputs_ctx(query, &HashMap::new(), ctx)
    }

    /// Execute, supplying user-drawn inputs for `-f…` components.
    pub fn execute_with_inputs(
        &self,
        query: &ZqlQuery,
        inputs: &HashMap<String, Series>,
    ) -> Result<ZqlOutput, ZqlError> {
        self.execute_with_inputs_ctx(query, inputs, &QueryCtx::new())
    }

    /// [`ZqlEngine::execute_with_inputs`] under an explicit lifecycle
    /// ctx (see [`ZqlEngine::execute_ctx`]).
    pub fn execute_with_inputs_ctx(
        &self,
        query: &ZqlQuery,
        inputs: &HashMap<String, Series>,
        ctx: &QueryCtx,
    ) -> Result<ZqlOutput, ZqlError> {
        Exec::new(self, inputs, ctx).run(query)
    }

    /// Parse and execute the textual table format.
    pub fn execute_text(&self, text: &str) -> Result<ZqlOutput, ZqlError> {
        self.execute(&parse_query(text)?)
    }

    /// Parse and execute under an explicit lifecycle ctx.
    pub fn execute_text_ctx(&self, text: &str, ctx: &QueryCtx) -> Result<ZqlOutput, ZqlError> {
        self.execute_ctx(&parse_query(text)?, ctx)
    }

    pub fn execute_text_with_inputs(
        &self,
        text: &str,
        inputs: &HashMap<String, Series>,
    ) -> Result<ZqlOutput, ZqlError> {
        self.execute_with_inputs(&parse_query(text)?, inputs)
    }
}

// ---------------------------------------------------------------------
// Internal representation
// ---------------------------------------------------------------------

type GroupId = usize;

/// A variable assignment: the domain position of each iterated group.
/// It holds a handful of groups, so lookups scan it.
type Env = [(GroupId, usize)];

/// Deduplicated groups behind an iteration, plus each variable's
/// `(group, column)` slot.
type IterationGroups = (Vec<GroupId>, Vec<(GroupId, usize)>);

/// One value an axis variable can take.
#[derive(Clone, Debug, PartialEq)]
enum AxisValue {
    Attr(AttrExpr),
    Val(Value),
    Viz(VizSpec),
}

// Equal values hash equal: the hash skips the bin width.
impl Hash for AxisValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            AxisValue::Attr(a) => a.hash(state),
            AxisValue::Val(v) => v.hash(state),
            AxisValue::Viz(v) => (v.chart, v.y_agg).hash(state),
        }
    }
}

impl AxisValue {
    /// Rendering for diagnostics and `v.range`-style error messages.
    fn display(&self) -> String {
        match self {
            AxisValue::Attr(a) => a.attrs().join("×"),
            AxisValue::Val(v) => v.to_string(),
            AxisValue::Viz(v) => v.chart.to_string(),
        }
    }
}

/// A set of variables declared together (lockstep iteration, §3.7).
#[derive(Clone, Debug)]
struct VarGroup {
    vars: Vec<String>,
    /// `domain[i][c]` = value of `vars[c]` at position `i`.
    domain: Vec<Vec<AxisValue>>,
}

/// The axis assignments behind one visualization (its "visual source").
#[derive(Clone, Debug, PartialEq)]
struct CellSpec {
    x: AttrExpr,
    y: AttrExpr,
    /// Resolved slices: `(attribute, value)` per active Z column.
    z: Vec<(String, Value)>,
    viz: VizSpec,
    predicate: Predicate,
}

// Equal cells hash equal: the hash covers x, y and z only.
impl Hash for CellSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (&self.x, &self.y, &self.z).hash(state);
    }
}

impl CellSpec {
    fn label(&self) -> String {
        self.z
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A named visual component: an array of visualizations over `dims`.
#[derive(Clone, Debug)]
struct Component {
    dims: Vec<GroupId>,
    cells: Vec<CellSpec>,
    series: Vec<Option<Series>>,
    output: bool,
}

impl Component {
    fn len(&self) -> usize {
        self.cells.len()
    }
}

/// How one axis column of a row resolves.
#[derive(Clone, Debug)]
enum Slot {
    FixedAttr(AttrExpr),
    /// Variable value from `(group, column)`.
    Group(GroupId, usize),
}

#[derive(Clone, Debug)]
enum ZSlot {
    Fixed {
        attr: String,
        value: Value,
    },
    /// Value from a group column, attribute fixed.
    Values {
        gid: GroupId,
        col: usize,
        attr: String,
    },
    /// `(attribute, value)` pair from two group columns.
    Pairs {
        gid: GroupId,
        attr_col: usize,
        val_col: usize,
    },
}

#[derive(Clone, Debug)]
enum VizSlot {
    Fixed(VizSpec),
    Group(GroupId, usize),
}

/// A data-fetch unit: one SQL query plus the cells of one component it
/// feeds.
struct BatchQuery {
    query: SelectQuery,
    component: String,
    consumers: Vec<Consumer>,
}

struct Consumer {
    cell: usize,
    /// Indices into the query's `ys` to sum (composite `+` measures).
    y_idxs: Vec<usize>,
    /// Expected Z-key inside the grouped result (empty = ungrouped).
    z_key: Vec<Value>,
    /// Flatten leading group dimensions into a sequential x (X = `a×b`).
    flatten_x: bool,
}

// ---------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------

struct Exec<'a> {
    engine: &'a ZqlEngine,
    inputs: &'a HashMap<String, Series>,
    /// Lifecycle handle covering the whole ZQL execution: one user
    /// interaction = one ctx, threaded into every `run_request_ctx`.
    ctx: &'a QueryCtx,
    /// The table snapshot every planning step of this execution reads.
    table: Arc<Table>,
    /// Distinct values per attribute, resolved at most once per
    /// execution (a numeric column's are a full scan plus a sort).
    distinct: HashMap<String, Arc<[Value]>>,
    /// How many times `distinct` missed.
    distinct_scans: usize,
    groups: Vec<VarGroup>,
    /// var name → (group, column)
    var_of: HashMap<String, (GroupId, usize)>,
    /// Z-value variables' attribute, when known.
    var_attr: HashMap<String, String>,
    components: HashMap<String, Component>,
    component_order: Vec<String>,
    pending: Vec<BatchQuery>,
    /// Rows already built ahead of schedule (InterTask lookahead).
    built_rows: Vec<bool>,
    /// Shared-pass cache (IntraTask and above): one fetch per distinct
    /// group-by within a single ZQL query, keyed by the canonical
    /// [`QueryKey`] — the same normalization the engine-level cache uses,
    /// so permuted-but-equivalent predicates collide instead of fetching
    /// twice. This layer reads *through* the engine cache: misses go to
    /// `Database::run_request`, which serves cross-execution repeats
    /// without a scan. Values are the engine's shared `Arc`s — a warm
    /// pass holds pointers into the engine cache, copying nothing.
    query_cache: HashMap<QueryKey, Arc<ResultTable>>,
    compute_time: Duration,
}

impl<'a> Exec<'a> {
    fn new(engine: &'a ZqlEngine, inputs: &'a HashMap<String, Series>, ctx: &'a QueryCtx) -> Self {
        Exec {
            engine,
            inputs,
            ctx,
            table: engine.db.table(),
            distinct: HashMap::new(),
            distinct_scans: 0,
            groups: Vec::new(),
            var_of: HashMap::new(),
            var_attr: HashMap::new(),
            components: HashMap::new(),
            component_order: Vec::new(),
            pending: Vec::new(),
            built_rows: Vec::new(),
            query_cache: HashMap::new(),
            compute_time: Duration::ZERO,
        }
    }

    fn run(&mut self, query: &ZqlQuery) -> Result<ZqlOutput, ZqlError> {
        let start = Instant::now();
        let db_before = self.engine.db.stats().snapshot();
        self.built_rows = vec![false; query.rows.len()];

        for idx in 0..query.rows.len() {
            if self.built_rows[idx] {
                // Fetched ahead by InterTask lookahead; just run its
                // processes now (they run in row order regardless).
            } else {
                self.build_row(&query.rows[idx])?;
                self.built_rows[idx] = true;
                match self.engine.opt {
                    OptLevel::NoOpt | OptLevel::IntraLine => self.flush()?,
                    OptLevel::IntraTask | OptLevel::InterTask => {}
                }
            }
            if !query.rows[idx].processes.is_empty() {
                if self.engine.opt == OptLevel::InterTask {
                    // Lookahead: also build (and batch) later rows whose
                    // inputs don't depend on this or later tasks.
                    self.lookahead(query, idx + 1)?;
                }
                self.flush()?;
                let t = Instant::now();
                for p in &query.rows[idx].processes {
                    self.run_process(p)?;
                }
                self.compute_time += t.elapsed();
            }
        }
        self.flush()?;

        // Collect outputs in component order.
        let mut visualizations = Vec::new();
        for name in &self.component_order {
            let comp = &self.components[name];
            if !comp.output {
                continue;
            }
            for (cell, series) in comp.cells.iter().zip(&comp.series) {
                visualizations.push(OutputViz {
                    component: name.clone(),
                    x: cell.x.attrs().join("×"),
                    y: cell.y.attrs().join("+"),
                    label: cell.label(),
                    spec: cell.viz.clone(),
                    series: series.clone().unwrap_or_default(),
                });
            }
        }

        let db_stats = self.engine.db.stats().snapshot().since(&db_before);
        Ok(ZqlOutput {
            visualizations,
            report: ExecReport {
                sql_queries: db_stats.queries,
                requests: db_stats.requests,
                rows_scanned: db_stats.rows_scanned,
                cache_hits: db_stats.cache_hits,
                cache_derived_hits: db_stats.cache_derived_hits,
                cache_misses: db_stats.cache_misses,
                ivm_hits: db_stats.ivm_hits,
                ivm_rows_scanned: db_stats.ivm_rows_scanned,
                queries_cancelled: db_stats.queries_cancelled,
                morsels_cancelled: db_stats.morsels_cancelled,
                worker_panics: db_stats.worker_panics,
                queries_retried: db_stats.queries_retried,
                queries_degraded: db_stats.queries_degraded,
                db_time: db_stats.exec_time,
                compute_time: self.compute_time,
                total_time: start.elapsed(),
            },
        })
    }

    /// InterTask lookahead: build later rows that (a) haven't been built,
    /// (b) are fresh (not derived/user-input), and (c) reference only
    /// variables that already exist.
    fn lookahead(&mut self, query: &ZqlQuery, from: usize) -> Result<(), ZqlError> {
        for idx in from..query.rows.len() {
            if self.built_rows[idx] {
                continue;
            }
            let row = &query.rows[idx];
            if row.name.user_input || row.name.derived.is_some() {
                continue;
            }
            if self.row_vars_available(row) {
                self.build_row(row)?;
                self.built_rows[idx] = true;
            }
        }
        Ok(())
    }

    /// True when every variable the row *references* (without declaring)
    /// already exists.
    fn row_vars_available(&self, row: &ZqlRow) -> bool {
        let axis_ok = |e: &Option<AxisEntry>| match e {
            Some(AxisEntry::Var(v)) => self.var_of.contains_key(v),
            Some(AxisEntry::BindDerived { .. }) => false,
            Some(AxisEntry::Declare { set, .. }) => self.attr_set_available(set),
            _ => true,
        };
        if !axis_ok(&row.x) || !axis_ok(&row.y) {
            return false;
        }
        for z in &row.zs {
            let ok = match z {
                ZEntry::Var(v) => self.var_of.contains_key(v),
                ZEntry::DeclareValues { set, .. } | ZEntry::DeclarePairs { set, .. } => {
                    self.zset_available(set)
                }
                ZEntry::BindDerived { .. } | ZEntry::OrderBy(_) => false,
                ZEntry::None | ZEntry::Fixed { .. } => true,
            };
            if !ok {
                return false;
            }
        }
        if let Some(c) = &row.constraints {
            if !self.constraint_available(c) {
                return false;
            }
        }
        if let Some(VizEntry::Var(v)) = &row.viz {
            if !self.var_of.contains_key(v) {
                return false;
            }
        }
        true
    }

    fn attr_set_available(&self, set: &AttrSet) -> bool {
        match set {
            AttrSet::RangeOf(v) => self.var_of.contains_key(v),
            AttrSet::Union(a, b) | AttrSet::Diff(a, b) | AttrSet::Intersect(a, b) => {
                self.attr_set_available(a) && self.attr_set_available(b)
            }
            _ => true,
        }
    }

    fn value_set_available(&self, set: &ValueSet) -> bool {
        match set {
            ValueSet::RangeOf(v) => self.var_of.contains_key(v),
            ValueSet::Union(a, b) | ValueSet::Diff(a, b) | ValueSet::Intersect(a, b) => {
                self.value_set_available(a) && self.value_set_available(b)
            }
            _ => true,
        }
    }

    fn zset_available(&self, set: &ZSet) -> bool {
        match set {
            ZSet::AttrValues { values, .. } => self.value_set_available(values),
            ZSet::CrossAttrs { attrs, values } => {
                self.attr_set_available(attrs) && self.value_set_available(values)
            }
            ZSet::Union(a, b) => self.zset_available(a) && self.zset_available(b),
        }
    }

    fn constraint_available(&self, c: &ConstraintExpr) -> bool {
        match c {
            ConstraintExpr::Static(_) => true,
            ConstraintExpr::InRange { var, .. } => self.var_of.contains_key(var),
            ConstraintExpr::And(a, b) => {
                self.constraint_available(a) && self.constraint_available(b)
            }
        }
    }

    // -----------------------------------------------------------------
    // Row building
    // -----------------------------------------------------------------

    fn build_row(&mut self, row: &ZqlRow) -> Result<(), ZqlError> {
        let name = row.name.name.clone();
        if self.components.contains_key(&name) {
            return Err(sem(format!("component '{name}' defined twice")));
        }
        if row.name.user_input {
            let series = self
                .inputs
                .get(&name)
                .cloned()
                .ok_or_else(|| sem(format!("no user input supplied for -{name}")))?;
            self.insert_component(
                name,
                Component {
                    dims: Vec::new(),
                    cells: vec![CellSpec {
                        x: AttrExpr::attr("<input>"),
                        y: AttrExpr::attr("<input>"),
                        z: Vec::new(),
                        viz: VizSpec::default(),
                        predicate: Predicate::True,
                    }],
                    series: vec![Some(series)],
                    output: row.name.output,
                },
            );
            return Ok(());
        }
        if let Some(expr) = &row.name.derived {
            return self.build_derived_row(row, expr.clone());
        }
        self.build_fresh_row(row)
    }

    fn insert_component(&mut self, name: String, comp: Component) {
        self.component_order.push(name.clone());
        self.components.insert(name, comp);
    }

    fn new_group(
        &mut self,
        vars: Vec<String>,
        domain: Vec<Vec<AxisValue>>,
    ) -> Result<GroupId, ZqlError> {
        let gid = self.groups.len();
        for (c, v) in vars.iter().enumerate() {
            if self.var_of.contains_key(v) {
                return Err(sem(format!("variable '{v}' declared twice")));
            }
            self.var_of.insert(v.clone(), (gid, c));
        }
        self.groups.push(VarGroup { vars, domain });
        Ok(gid)
    }

    fn group_len(&self, gid: GroupId) -> usize {
        self.groups[gid].domain.len()
    }

    fn lookup_var(&self, v: &str) -> Result<(GroupId, usize), ZqlError> {
        self.var_of
            .get(v)
            .copied()
            .ok_or_else(|| sem(format!("variable '{v}' is not defined")))
    }

    /// Ordered, deduplicated values a variable ranges over (`v.range`).
    fn var_range(&self, v: &str) -> Result<Vec<AxisValue>, ZqlError> {
        let (gid, col) = self.lookup_var(v)?;
        let mut seen = Members::new();
        Ok(self.groups[gid]
            .domain
            .iter()
            .map(|row| &row[col])
            .filter(|av| seen.insert_new(*av))
            .cloned()
            .collect())
    }

    fn build_fresh_row(&mut self, row: &ZqlRow) -> Result<(), ZqlError> {
        let x_slot = self.resolve_axis(row.x.as_ref(), "x")?;
        let y_slot = self.resolve_axis(row.y.as_ref(), "y")?;
        let mut z_slots = Vec::new();
        for z in &row.zs {
            if let Some(slot) = self.resolve_z(z)? {
                z_slots.push(slot);
            }
        }
        let viz_slot = self.resolve_viz(row.viz.as_ref())?;
        let predicate = self.resolve_constraints(row.constraints.as_ref())?;

        // Dimensions: distinct groups in column order X, Y, Z…, Viz.
        let mut dims: Vec<GroupId> = Vec::new();
        let add_dim = |gid: GroupId, dims: &mut Vec<GroupId>| {
            if !dims.contains(&gid) {
                dims.push(gid);
            }
        };
        if let Slot::Group(g, _) = x_slot {
            add_dim(g, &mut dims);
        }
        if let Slot::Group(g, _) = y_slot {
            add_dim(g, &mut dims);
        }
        for z in &z_slots {
            match z {
                ZSlot::Values { gid, .. } | ZSlot::Pairs { gid, .. } => add_dim(*gid, &mut dims),
                ZSlot::Fixed { .. } => {}
            }
        }
        if let VizSlot::Group(g, _) = viz_slot {
            add_dim(g, &mut dims);
        }

        // Materialize cells in row-major order over the dims.
        let lens: Vec<usize> = dims.iter().map(|&g| self.group_len(g)).collect();
        let total: usize = lens
            .iter()
            .product::<usize>()
            .max(if dims.is_empty() { 1 } else { 0 });
        let mut cells = Vec::with_capacity(total);
        let mut env = new_env(&dims);
        for flat in 0..total {
            place(flat, &lens, &mut env);
            let x = self.slot_attr(&x_slot, &env)?;
            let y = self.slot_attr(&y_slot, &env)?;
            let mut z = Vec::with_capacity(z_slots.len());
            for zs in &z_slots {
                z.push(self.zslot_pair(zs, &env)?);
            }
            let viz = match &viz_slot {
                VizSlot::Fixed(v) => v.clone(),
                VizSlot::Group(g, c) => match &self.groups[*g].domain[env_pos(&env, *g)][*c] {
                    AxisValue::Viz(v) => v.clone(),
                    other => return Err(sem(format!("viz variable bound to {other:?}"))),
                },
            };
            cells.push(CellSpec {
                x,
                y,
                z,
                viz,
                predicate: predicate.clone(),
            });
        }

        let series = vec![None; cells.len()];
        let comp = Component {
            dims,
            cells,
            series,
            output: row.name.output,
        };
        self.plan_fetch(&row.name.name, &comp)?;
        self.insert_component(row.name.name.clone(), comp);
        Ok(())
    }

    fn resolve_axis(&mut self, entry: Option<&AxisEntry>, which: &str) -> Result<Slot, ZqlError> {
        match entry {
            None => Err(sem(format!(
                "a fresh visual component needs an {which} axis"
            ))),
            Some(AxisEntry::Fixed(a)) => Ok(Slot::FixedAttr(a.clone())),
            Some(AxisEntry::Var(v)) => {
                let (g, c) = self.lookup_var(v)?;
                Ok(Slot::Group(g, c))
            }
            Some(AxisEntry::Declare { var, set }) => {
                let attrs = self.resolve_attr_set(set)?;
                if attrs.is_empty() {
                    return Err(sem(format!("{which} set for '{var}' is empty")));
                }
                let domain = attrs
                    .into_iter()
                    .map(|a| vec![AxisValue::Attr(a)])
                    .collect();
                let gid = self.new_group(vec![var.clone()], domain)?;
                Ok(Slot::Group(gid, 0))
            }
            Some(AxisEntry::BindDerived { .. }) => Err(sem(
                "'<- _' bindings are only valid on derived rows".to_string(),
            )),
        }
    }

    fn resolve_attr_set(&self, set: &AttrSet) -> Result<Vec<AttrExpr>, ZqlError> {
        Ok(match set {
            AttrSet::List(items) => items.clone(),
            AttrSet::All => self
                .table
                .attribute_names()
                .into_iter()
                .map(AttrExpr::Attr)
                .collect(),
            AttrSet::AllExcept(except) => {
                filter_by(self.table.attribute_names(), except, false, |a| a)
                    .into_iter()
                    .map(AttrExpr::Attr)
                    .collect()
            }
            AttrSet::Named(n) => self
                .engine
                .registry
                .attr_set(n)
                .ok_or_else(|| sem(format!("unknown named attribute set '{n}'")))?
                .iter()
                .cloned()
                .map(AttrExpr::Attr)
                .collect(),
            AttrSet::RangeOf(v) => self
                .var_range(v)?
                .into_iter()
                .map(|av| match av {
                    AxisValue::Attr(a) => Ok(a),
                    other => Err(sem(format!("'{v}.range' holds non-attribute {other:?}"))),
                })
                .collect::<Result<_, _>>()?,
            AttrSet::Union(a, b) => {
                union_by(self.resolve_attr_set(a)?, self.resolve_attr_set(b)?, |i| i)
            }
            AttrSet::Diff(a, b) => {
                let rhs = self.resolve_attr_set(b)?;
                filter_by(self.resolve_attr_set(a)?, &rhs, false, |i| i)
            }
            AttrSet::Intersect(a, b) => {
                let rhs = self.resolve_attr_set(b)?;
                filter_by(self.resolve_attr_set(a)?, &rhs, true, |i| i)
            }
        })
    }

    /// The distinct values of `attr`, from the per-execution memo.
    fn distinct_values(&mut self, attr: &str) -> Result<Arc<[Value]>, ZqlError> {
        if let Some(values) = self.distinct.get(attr) {
            return Ok(values.clone());
        }
        let values: Arc<[Value]> = self.table.column(attr)?.distinct_values().into();
        self.distinct_scans += 1;
        self.distinct.insert(attr.to_string(), values.clone());
        Ok(values)
    }

    fn resolve_value_set(
        &mut self,
        set: &ValueSet,
        attr: Option<&str>,
    ) -> Result<Vec<Value>, ZqlError> {
        Ok(match set {
            ValueSet::List(v) => v.clone(),
            ValueSet::All => {
                let attr = attr.ok_or_else(|| sem("'*' needs an attribute context"))?;
                self.distinct_values(attr)?.to_vec()
            }
            ValueSet::AllExcept(except) => {
                let attr = attr.ok_or_else(|| sem("'* \\ …' needs an attribute context"))?;
                filter_by(self.distinct_values(attr)?.to_vec(), except, false, |v| v)
            }
            ValueSet::Named(n) => self
                .engine
                .registry
                .value_set(n)
                .ok_or_else(|| sem(format!("unknown named value set '{n}'")))?
                .to_vec(),
            ValueSet::RangeOf(v) => self
                .var_range(v)?
                .into_iter()
                .map(|av| match av {
                    AxisValue::Val(val) => Ok(val),
                    other => Err(sem(format!("'{v}.range' holds non-value {other:?}"))),
                })
                .collect::<Result<_, _>>()?,
            ValueSet::Union(a, b) => {
                let lhs = self.resolve_value_set(a, attr)?;
                union_by(lhs, self.resolve_value_set(b, attr)?, |i| i)
            }
            ValueSet::Diff(a, b) => {
                let rhs = self.resolve_value_set(b, attr)?;
                filter_by(self.resolve_value_set(a, attr)?, &rhs, false, |i| i)
            }
            ValueSet::Intersect(a, b) => {
                let rhs = self.resolve_value_set(b, attr)?;
                filter_by(self.resolve_value_set(a, attr)?, &rhs, true, |i| i)
            }
        })
    }

    /// Infer the attribute for an unqualified Z value set from the range
    /// variables it references.
    fn infer_zset_attr(&self, set: &ValueSet) -> Option<String> {
        match set {
            ValueSet::RangeOf(v) => self.var_attr.get(v).cloned(),
            ValueSet::Union(a, b) | ValueSet::Diff(a, b) | ValueSet::Intersect(a, b) => {
                self.infer_zset_attr(a).or_else(|| self.infer_zset_attr(b))
            }
            _ => None,
        }
    }

    fn resolve_zset_pairs(&mut self, set: &ZSet) -> Result<Vec<(String, Value)>, ZqlError> {
        Ok(match set {
            ZSet::AttrValues { attr, values } => {
                let attr = match attr {
                    Some(a) => a.clone(),
                    None => self.infer_zset_attr(values).ok_or_else(|| {
                        sem("cannot infer the attribute for this Z set; qualify it as 'attr'.set")
                    })?,
                };
                self.resolve_value_set(values, Some(&attr))?
                    .into_iter()
                    .map(|v| (attr.clone(), v))
                    .collect()
            }
            ZSet::CrossAttrs { attrs, values } => {
                let mut out = Vec::new();
                for attr_expr in self.resolve_attr_set(attrs)? {
                    let AttrExpr::Attr(attr) = attr_expr else {
                        return Err(sem("composite attributes cannot be sliced in Z"));
                    };
                    for v in self.resolve_value_set(values, Some(&attr))? {
                        out.push((attr.clone(), v));
                    }
                }
                out
            }
            ZSet::Union(a, b) => {
                let lhs = self.resolve_zset_pairs(a)?;
                union_by(lhs, self.resolve_zset_pairs(b)?, |p| p)
            }
        })
    }

    fn resolve_z(&mut self, entry: &ZEntry) -> Result<Option<ZSlot>, ZqlError> {
        match entry {
            ZEntry::None => Ok(None),
            ZEntry::Fixed { attr, value } => Ok(Some(ZSlot::Fixed {
                attr: attr.clone(),
                value: value.clone(),
            })),
            ZEntry::Var(v) => {
                let (gid, col) = self.lookup_var(v)?;
                let attr = self
                    .var_attr
                    .get(v)
                    .cloned()
                    .ok_or_else(|| sem(format!("variable '{v}' has no slice attribute")))?;
                Ok(Some(ZSlot::Values { gid, col, attr }))
            }
            ZEntry::DeclareValues { var, set } => {
                let pairs = self.resolve_zset_pairs(set)?;
                if pairs.is_empty() {
                    return Err(sem(format!("Z set for '{var}' is empty")));
                }
                let attrs: Vec<&String> = pairs.iter().map(|(a, _)| a).collect();
                let uniform = attrs.windows(2).all(|w| w[0] == w[1]);
                if uniform {
                    let attr = pairs[0].0.clone();
                    let domain = pairs
                        .into_iter()
                        .map(|(_, v)| vec![AxisValue::Val(v)])
                        .collect();
                    let gid = self.new_group(vec![var.clone()], domain)?;
                    self.var_attr.insert(var.clone(), attr.clone());
                    Ok(Some(ZSlot::Values { gid, col: 0, attr }))
                } else {
                    // Mixed attributes behave like an anonymous pair group.
                    let domain = pairs
                        .into_iter()
                        .map(|(a, v)| vec![AxisValue::Attr(AttrExpr::Attr(a)), AxisValue::Val(v)])
                        .collect();
                    let hidden = format!("__attr_of_{var}");
                    let gid = self.new_group(vec![hidden, var.clone()], domain)?;
                    Ok(Some(ZSlot::Pairs {
                        gid,
                        attr_col: 0,
                        val_col: 1,
                    }))
                }
            }
            ZEntry::DeclarePairs {
                attr_var,
                val_var,
                set,
            } => {
                let pairs = self.resolve_zset_pairs(set)?;
                if pairs.is_empty() {
                    return Err(sem(format!("Z set for '{attr_var}.{val_var}' is empty")));
                }
                let domain = pairs
                    .into_iter()
                    .map(|(a, v)| vec![AxisValue::Attr(AttrExpr::Attr(a)), AxisValue::Val(v)])
                    .collect();
                let gid = self.new_group(vec![attr_var.clone(), val_var.clone()], domain)?;
                Ok(Some(ZSlot::Pairs {
                    gid,
                    attr_col: 0,
                    val_col: 1,
                }))
            }
            ZEntry::BindDerived { .. } => Err(sem(
                "'<- _' bindings are only valid on derived rows".to_string(),
            )),
            ZEntry::OrderBy(_) => Err(sem(
                "ordering markers ('var ->') are only valid on '.order' rows".to_string(),
            )),
        }
    }

    fn resolve_viz(&mut self, entry: Option<&VizEntry>) -> Result<VizSlot, ZqlError> {
        match entry {
            None => Ok(VizSlot::Fixed(VizSpec::default())),
            Some(VizEntry::Fixed(spec)) => Ok(VizSlot::Fixed(spec.clone())),
            Some(VizEntry::Var(v)) => {
                let (g, c) = self.lookup_var(v)?;
                Ok(VizSlot::Group(g, c))
            }
            Some(VizEntry::Declare { var, specs }) => {
                let domain = specs
                    .iter()
                    .map(|s| vec![AxisValue::Viz(s.clone())])
                    .collect();
                let gid = self.new_group(vec![var.clone()], domain)?;
                Ok(VizSlot::Group(gid, 0))
            }
        }
    }

    fn resolve_constraints(&self, entry: Option<&ConstraintExpr>) -> Result<Predicate, ZqlError> {
        match entry {
            None => Ok(Predicate::True),
            Some(ConstraintExpr::Static(p)) => Ok(p.clone()),
            Some(ConstraintExpr::InRange { attr, var }) => {
                let values: Vec<Value> = self
                    .var_range(var)?
                    .into_iter()
                    .map(|av| match av {
                        AxisValue::Val(v) => Ok(v),
                        other => Err(sem(format!("'{var}.range' holds non-value {other:?}"))),
                    })
                    .collect::<Result<_, _>>()?;
                self.in_predicate(attr, &values)
            }
            Some(ConstraintExpr::And(a, b)) => Ok(self
                .resolve_constraints(Some(a))?
                .and(self.resolve_constraints(Some(b))?)),
        }
    }

    fn in_predicate(&self, attr: &str, values: &[Value]) -> Result<Predicate, ZqlError> {
        match self.table.column(attr)? {
            Column::Cat(_) => {
                let strs = values
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => Ok(s.clone()),
                        other => Err(sem(format!("IN value {other} on categorical {attr}"))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Predicate::cat_in(attr.to_string(), strs))
            }
            _ => {
                let disj = values
                    .iter()
                    .map(|v| {
                        let n = v
                            .as_f64()
                            .ok_or_else(|| sem(format!("IN value {v} on numeric {attr}")))?;
                        Ok(vec![Atom::NumCmp {
                            col: attr.to_string(),
                            op: CmpOp::Eq,
                            value: n,
                        }])
                    })
                    .collect::<Result<Vec<_>, ZqlError>>()?;
                Ok(Predicate::Or(disj))
            }
        }
    }

    fn slot_attr(&self, slot: &Slot, env: &Env) -> Result<AttrExpr, ZqlError> {
        match slot {
            Slot::FixedAttr(a) => Ok(a.clone()),
            Slot::Group(g, c) => match &self.groups[*g].domain[env_pos(env, *g)][*c] {
                AxisValue::Attr(a) => Ok(a.clone()),
                other => Err(sem(format!(
                    "axis variable bound to non-attribute {}",
                    other.display()
                ))),
            },
        }
    }

    fn zslot_pair(&self, slot: &ZSlot, env: &Env) -> Result<(String, Value), ZqlError> {
        match slot {
            ZSlot::Fixed { attr, value } => Ok((attr.clone(), value.clone())),
            ZSlot::Values { gid, col, attr } => {
                match &self.groups[*gid].domain[env_pos(env, *gid)][*col] {
                    AxisValue::Val(v) => Ok((attr.clone(), v.clone())),
                    other => Err(sem(format!("z variable bound to non-value {other:?}"))),
                }
            }
            ZSlot::Pairs {
                gid,
                attr_col,
                val_col,
            } => {
                let row = &self.groups[*gid].domain[env_pos(env, *gid)];
                let attr = match &row[*attr_col] {
                    AxisValue::Attr(AttrExpr::Attr(a)) => a.clone(),
                    other => return Err(sem(format!("pair attribute is {other:?}"))),
                };
                let value = match &row[*val_col] {
                    AxisValue::Val(v) => v.clone(),
                    other => return Err(sem(format!("pair value is {other:?}"))),
                };
                Ok((attr, value))
            }
        }
    }

    // -----------------------------------------------------------------
    // Derived rows
    // -----------------------------------------------------------------

    fn build_derived_row(&mut self, row: &ZqlRow, expr: NameExpr) -> Result<(), ZqlError> {
        // Derivation needs fetched sources.
        self.flush()?;
        let mut cells = self.eval_name_expr(&expr)?;

        // `.order` reordering via `var ->` markers.
        let order_vars: Vec<String> = row
            .zs
            .iter()
            .filter_map(|z| match z {
                ZEntry::OrderBy(v) => Some(v.clone()),
                _ => None,
            })
            .collect();
        if contains_order(&expr) {
            if order_vars.is_empty() {
                return Err(sem("'.order' needs at least one 'var ->' column"));
            }
            cells = self.reorder_cells(cells, &order_vars)?;
        } else if !order_vars.is_empty() {
            return Err(sem("'var ->' columns are only valid with '.order'"));
        }

        // Bind `<- _` variables to the derived component's values.
        let mut bind_vars: Vec<String> = Vec::new();
        let mut bind_cols: Vec<Vec<AxisValue>> = Vec::new();
        let mut add_binding = |var: &str, col: Vec<AxisValue>| {
            bind_vars.push(var.to_string());
            bind_cols.push(col);
        };
        if let Some(AxisEntry::BindDerived { var }) = &row.x {
            add_binding(
                var,
                cells
                    .iter()
                    .map(|(c, _)| AxisValue::Attr(c.x.clone()))
                    .collect(),
            );
        }
        if let Some(AxisEntry::BindDerived { var }) = &row.y {
            add_binding(
                var,
                cells
                    .iter()
                    .map(|(c, _)| AxisValue::Attr(c.y.clone()))
                    .collect(),
            );
        }
        for z in &row.zs {
            if let ZEntry::BindDerived {
                attr_var,
                val_var,
                attr,
            } = z
            {
                let mut attrs_col = Vec::with_capacity(cells.len());
                let mut vals_col = Vec::with_capacity(cells.len());
                for (c, _) in &cells {
                    let pair = match attr {
                        Some(a) => c.z.iter().find(|(za, _)| za == a),
                        None => c.z.first(),
                    }
                    .ok_or_else(|| {
                        sem(format!(
                            "derived visualization has no slice for binding '{val_var}'"
                        ))
                    })?;
                    attrs_col.push(AxisValue::Attr(AttrExpr::Attr(pair.0.clone())));
                    vals_col.push(AxisValue::Val(pair.1.clone()));
                }
                if let Some(av) = attr_var {
                    add_binding(av, attrs_col);
                }
                if let Some(a) = attr {
                    self.var_attr.insert(val_var.clone(), a.clone());
                } else if let Some((first, _)) = cells.first().and_then(|(c, _)| c.z.first()) {
                    self.var_attr.insert(val_var.clone(), first.clone());
                }
                add_binding(val_var, vals_col);
            }
        }

        let dims = if bind_vars.is_empty() {
            Vec::new()
        } else {
            let domain: Vec<Vec<AxisValue>> = (0..cells.len())
                .map(|i| bind_cols.iter().map(|col| col[i].clone()).collect())
                .collect();
            vec![self.new_group(bind_vars, domain)?]
        };
        if !dims.is_empty() && self.group_len(dims[0]) != cells.len() {
            return Err(sem("derived binding length mismatch"));
        }

        let (specs, series): (Vec<CellSpec>, Vec<Option<Series>>) =
            cells.into_iter().map(|(c, s)| (c, Some(s))).unzip();
        self.insert_component(
            row.name.name.clone(),
            Component {
                dims,
                cells: specs,
                series,
                output: row.name.output,
            },
        );
        Ok(())
    }

    fn eval_name_expr(&self, expr: &NameExpr) -> Result<Vec<(CellSpec, Series)>, ZqlError> {
        Ok(match expr {
            NameExpr::Ref(name) => {
                let comp = self
                    .components
                    .get(name)
                    .ok_or_else(|| sem(format!("unknown component '{name}'")))?;
                comp.cells
                    .iter()
                    .zip(&comp.series)
                    .map(|(c, s)| (c.clone(), s.clone().unwrap_or_default()))
                    .collect()
            }
            NameExpr::Add(a, b) => {
                let mut out = self.eval_name_expr(a)?;
                out.extend(self.eval_name_expr(b)?);
                out
            }
            NameExpr::Sub(a, b) => {
                let rhs = self.eval_name_expr(b)?;
                filter_by(self.eval_name_expr(a)?, &rhs, false, |(c, _)| c)
            }
            NameExpr::Intersect(a, b) => {
                let rhs = self.eval_name_expr(b)?;
                filter_by(self.eval_name_expr(a)?, &rhs, true, |(c, _)| c)
            }
            NameExpr::Index(inner, i) => {
                let cells = self.eval_name_expr(inner)?;
                if *i == 0 || *i > cells.len() {
                    return Err(sem(format!(
                        "index [{i}] out of bounds (1..={})",
                        cells.len()
                    )));
                }
                vec![cells[i - 1].clone()]
            }
            NameExpr::Slice(inner, a, b) => {
                let cells = self.eval_name_expr(inner)?;
                if *a == 0 || a > b {
                    return Err(sem(format!("bad slice [{a}:{b}]")));
                }
                let hi = (*b).min(cells.len());
                if *a > hi {
                    Vec::new()
                } else {
                    cells[a - 1..hi].to_vec()
                }
            }
            NameExpr::Range(inner) => union_by(Vec::new(), self.eval_name_expr(inner)?, |(c, _)| c),
            // `.order` is applied by the caller (needs the row's markers).
            NameExpr::Order(inner) => self.eval_name_expr(inner)?,
        })
    }

    fn reorder_cells(
        &self,
        cells: Vec<(CellSpec, Series)>,
        order_vars: &[String],
    ) -> Result<Vec<(CellSpec, Series)>, ZqlError> {
        // All order variables must come from one (lockstep) group.
        let (gid, _) = self.lookup_var(&order_vars[0])?;
        let cols: Vec<usize> = order_vars
            .iter()
            .map(|v| {
                let (g, c) = self.lookup_var(v)?;
                if g != gid {
                    return Err(sem("'.order' variables must be declared together"));
                }
                Ok(c)
            })
            .collect::<Result<_, _>>()?;
        // Bucket the cells by the hash of every key the first variable
        // can match them on, in cell order. A domain row then checks only
        // its bucket (a superset of its matches) instead of every cell;
        // `cell_matches` still decides, so the first match wins as before.
        let hasher = RandomState::new();
        let attr0 = self.var_attr.get(&order_vars[0]);
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, (c, _)) in cells.iter().enumerate() {
            let vals = c.z.iter().filter(|(za, _)| attr0.is_none_or(|a| za == a));
            let keys = vals.map(|(_, zv)| hasher.hash_one(zv)).chain([
                hasher.hash_one(c.x.attrs().join("×")),
                hasher.hash_one(c.y.attrs().join("+")),
            ]);
            for key in keys {
                let bucket = buckets.entry(key).or_default();
                if bucket.last() != Some(&i) {
                    bucket.push(i);
                }
            }
        }
        let every: Vec<usize> = (0..cells.len()).collect();
        let mut out = Vec::new();
        for domain_row in &self.groups[gid].domain {
            let candidates = match &domain_row[cols[0]] {
                AxisValue::Val(v) => buckets.get(&hasher.hash_one(v)),
                AxisValue::Attr(a) => buckets.get(&hasher.hash_one(a.attrs().join("×"))),
                AxisValue::Viz(_) => Some(&every),
            };
            let matched = candidates.into_iter().flatten().find(|&&i| {
                order_vars.iter().zip(&cols).all(|(v, &col)| {
                    cell_matches(&cells[i].0, self.var_attr.get(v), &domain_row[col])
                })
            });
            if let Some(&i) = matched {
                out.push(cells[i].clone());
            }
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Fetch planning and flushing
    // -----------------------------------------------------------------

    fn plan_fetch(&mut self, name: &str, comp: &Component) -> Result<(), ZqlError> {
        match self.engine.opt {
            OptLevel::NoOpt => self.plan_unbatched(name, comp),
            _ => self.plan_batched(name, comp),
        }
    }

    /// §5.1: one SQL query per visualization, z slices as predicates.
    fn plan_unbatched(&mut self, name: &str, comp: &Component) -> Result<(), ZqlError> {
        for (idx, cell) in comp.cells.iter().enumerate() {
            let (query, y_idxs, flatten_x) = self.cell_query(cell, false)?;
            self.pending.push(BatchQuery {
                query,
                component: name.to_string(),
                consumers: vec![Consumer {
                    cell: idx,
                    y_idxs,
                    z_key: Vec::new(),
                    flatten_x,
                }],
            });
        }
        Ok(())
    }

    /// §5.2 intra-line: merge cells that differ only in Z values (and/or
    /// Y measure) into combined GROUP BY queries.
    ///
    /// O(cells): each cell is compared with the few distinct batch keys
    /// (the last one first, since cells of a batch are mostly adjacent),
    /// its Z values are deduplicated through per-attribute hash sets, and
    /// the "strict subset?" test reads a cardinality instead of listing
    /// the column's values.
    fn plan_batched(&mut self, name: &str, comp: &Component) -> Result<(), ZqlError> {
        // Partition cells by everything except z *values* and y.
        let mut batches: Vec<Vec<usize>> = Vec::new();
        for (idx, cell) in comp.cells.iter().enumerate() {
            match batches
                .iter_mut()
                .rev()
                .find(|b| same_batch(&comp.cells[b[0]], cell))
            {
                Some(b) => b.push(idx),
                None => batches.push(vec![idx]),
            }
        }
        for idxs in &batches {
            let first = &comp.cells[idxs[0]];
            if matches!(first.x, AttrExpr::Cross(_)) {
                // Cross axes keep per-cell queries (they already group).
                for &idx in idxs {
                    let (query, y_idxs, flatten_x) = self.cell_query(&comp.cells[idx], false)?;
                    self.pending.push(BatchQuery {
                        query,
                        component: name.to_string(),
                        consumers: vec![Consumer {
                            cell: idx,
                            y_idxs,
                            z_key: Vec::new(),
                            flatten_x,
                        }],
                    });
                }
                continue;
            }
            // Combined query: GROUP BY z attrs, all y measures at once.
            let mut ys: Vec<YSpec> = Vec::new();
            let mut y_index: HashMap<&str, usize> = HashMap::new();
            let mut consumers = Vec::with_capacity(idxs.len());
            // Restrict each grouped attribute to the values actually
            // requested ("WHERE product IN P" in the paper's rewrite),
            // in first-seen order.
            let mut z_seen: Vec<Members<Value>> = first.z.iter().map(|_| Members::new()).collect();
            let mut z_values: Vec<Vec<Value>> = vec![Vec::new(); first.z.len()];
            for &idx in idxs {
                let cell = &comp.cells[idx];
                let mut y_idxs = Vec::new();
                for yattr in cell.y.attrs() {
                    let slot = *y_index.entry(yattr).or_insert_with(|| {
                        ys.push(YSpec::new(yattr.to_string(), cell.viz.y_agg));
                        ys.len() - 1
                    });
                    y_idxs.push(slot);
                }
                for (zi, (_, v)) in cell.z.iter().enumerate() {
                    if z_seen[zi].insert_new(v) {
                        z_values[zi].push(v.clone());
                    }
                }
                consumers.push(Consumer {
                    cell: idx,
                    y_idxs,
                    z_key: cell.z.iter().map(|(_, v)| v.clone()).collect(),
                    flatten_x: false,
                });
            }
            let x = match &first.x {
                AttrExpr::Attr(a) => a.clone(),
                AttrExpr::Plus(_) => return Err(sem("composite '+' axes are only supported on Y")),
                AttrExpr::Cross(_) => unreachable!("handled above"),
            };
            let mut predicate = first.predicate.clone();
            for ((attr, _), values) in first.z.iter().zip(&z_values) {
                // Only restrict when it's an actual subset; an IN over
                // every value would just slow the scan down.
                let cardinality = match self.table.column(attr)? {
                    Column::Cat(c) => c.cardinality(),
                    _ => self.distinct_values(attr)?.len(),
                };
                if values.len() < cardinality {
                    predicate = predicate.and(self.in_predicate(attr, values)?);
                }
            }
            let mut query = SelectQuery::new(
                XSpec {
                    col: x,
                    bin: first.viz.x_bin,
                },
                ys,
            )
            .with_predicate(predicate);
            for (attr, _) in &first.z {
                query = query.with_z(attr.clone());
            }
            self.pending.push(BatchQuery {
                query,
                component: name.to_string(),
                consumers,
            });
        }
        Ok(())
    }

    /// Build the per-cell (unbatched) query.
    fn cell_query(
        &self,
        cell: &CellSpec,
        _grouped: bool,
    ) -> Result<(SelectQuery, Vec<usize>, bool), ZqlError> {
        let mut predicate = cell.predicate.clone();
        for (attr, value) in &cell.z {
            let atom = match (self.table.column(attr)?, value) {
                (Column::Cat(_), Value::Str(s)) => Predicate::cat_eq(attr.clone(), s.clone()),
                (_, v) => {
                    let n = v
                        .as_f64()
                        .ok_or_else(|| sem(format!("slice value {v} on numeric {attr}")))?;
                    Predicate::num_eq(attr.clone(), n)
                }
            };
            predicate = predicate.and(atom);
        }
        let ys: Vec<YSpec> = cell
            .y
            .attrs()
            .iter()
            .map(|a| YSpec::new(a.to_string(), cell.viz.y_agg))
            .collect();
        let y_idxs: Vec<usize> = (0..ys.len()).collect();
        match &cell.x {
            AttrExpr::Attr(a) => {
                let q = SelectQuery::new(
                    XSpec {
                        col: a.clone(),
                        bin: cell.viz.x_bin,
                    },
                    ys,
                )
                .with_predicate(predicate);
                Ok((q, y_idxs, false))
            }
            AttrExpr::Cross(attrs) => {
                // GROUP BY the leading attributes, x = the last; the
                // extraction flattens groups into one sequential axis.
                let (last, leading) = attrs.split_last().unwrap();
                let mut q = SelectQuery::new(
                    XSpec {
                        col: last.clone(),
                        bin: cell.viz.x_bin,
                    },
                    ys,
                )
                .with_predicate(predicate);
                for a in leading {
                    q = q.with_z(a.clone());
                }
                Ok((q, y_idxs, true))
            }
            AttrExpr::Plus(_) => Err(sem("composite '+' axes are only supported on Y")),
        }
    }

    /// Issue all pending queries as requests according to the opt level,
    /// and distribute results to component cells.
    ///
    /// At `IntraTask`/`InterTask` a shared-pass cache deduplicates
    /// equivalent group-bys across the whole ZQL query, keyed by the
    /// canonical [`QueryKey`] (so predicate permutations collide): only
    /// the first occurrence is fetched; later rows (and same-flush
    /// duplicates) read the cached `ResultTable`. The request itself fans
    /// the remaining distinct queries across the shared pool
    /// (`Database::run_request`), where the *engine-level* result cache
    /// answers cross-request and cross-execution repeats without a scan —
    /// this per-pass map is a read-through layer on top of it.
    fn flush(&mut self) -> Result<(), ZqlError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batches = std::mem::take(&mut self.pending);
        let cache_on = self.engine.opt >= OptLevel::IntraTask;
        let keys: Vec<QueryKey> = if cache_on {
            batches.iter().map(|b| QueryKey::of(&b.query)).collect()
        } else {
            Vec::new()
        };
        let fresh: Vec<Arc<ResultTable>> = match self.engine.opt {
            OptLevel::NoOpt => {
                // one request per query, nothing shared
                let mut out = Vec::with_capacity(batches.len());
                for b in &batches {
                    out.push(
                        self.engine
                            .db
                            .run_request_ctx(std::slice::from_ref(&b.query), self.ctx)?
                            .pop()
                            .unwrap(),
                    );
                }
                out
            }
            OptLevel::IntraLine => {
                let queries: Vec<SelectQuery> = batches.iter().map(|b| b.query.clone()).collect();
                self.engine.db.run_request_ctx(&queries, self.ctx)?
            }
            OptLevel::IntraTask | OptLevel::InterTask => {
                let mut to_run: Vec<SelectQuery> = Vec::new();
                let mut run_keys: Vec<QueryKey> = Vec::new();
                let mut planned: HashSet<&QueryKey> = HashSet::new();
                for (b, k) in batches.iter().zip(&keys) {
                    if !self.query_cache.contains_key(k) && planned.insert(k) {
                        to_run.push(b.query.clone());
                        run_keys.push(k.clone());
                    }
                }
                let results = if to_run.is_empty() {
                    Vec::new()
                } else {
                    self.engine.db.run_request_ctx(&to_run, self.ctx)?
                };
                for (k, rt) in run_keys.into_iter().zip(results) {
                    self.query_cache.insert(k, rt);
                }
                Vec::new()
            }
        };
        let t = Instant::now();
        for (i, batch) in batches.iter().enumerate() {
            let result: &ResultTable = if cache_on {
                self.query_cache
                    .get(&keys[i])
                    .expect("query cached by this flush")
            } else {
                &fresh[i]
            };
            let index = result.index();
            let comp = self
                .components
                .get_mut(&batch.component)
                .ok_or_else(|| sem(format!("internal: component {}", batch.component)))?;
            for consumer in &batch.consumers {
                let series = if consumer.flatten_x {
                    // Concatenate groups sequentially (x = a×b axes).
                    let mut ys_flat: Vec<f64> = Vec::new();
                    for g in &result.groups {
                        for i in 0..g.xs.len() {
                            let v: f64 = consumer.y_idxs.iter().map(|&yi| g.ys[yi][i]).sum();
                            ys_flat.push(v);
                        }
                    }
                    Series::from_ys(&ys_flat)
                } else if consumer.z_key.is_empty() && batch.query.zs.is_empty() {
                    match result.groups.first() {
                        Some(g) => combine_measures(g, &consumer.y_idxs),
                        None => Series::default(),
                    }
                } else {
                    match index.get(consumer.z_key.as_slice()) {
                        Some(&gi) => combine_measures(&result.groups[gi], &consumer.y_idxs),
                        None => Series::default(),
                    }
                };
                comp.series[consumer.cell] = Some(series);
            }
        }
        self.compute_time += t.elapsed();
        Ok(())
    }

    // -----------------------------------------------------------------
    // Process evaluation
    // -----------------------------------------------------------------

    fn run_process(&mut self, decl: &ProcessDecl) -> Result<(), ZqlError> {
        match decl {
            ProcessDecl::Rank {
                outputs,
                mechanism,
                over,
                filter,
                objective,
            } => self.run_rank(outputs, *mechanism, over, *filter, objective),
            ProcessDecl::Representative {
                outputs,
                k,
                over,
                component,
            } => self.run_representative(outputs, *k, over, component),
        }
    }

    /// Groups (deduplicated, in order) behind a list of variables, plus
    /// each variable's (group, column).
    fn iteration_groups(&self, vars: &[String]) -> Result<IterationGroups, ZqlError> {
        let mut gids: Vec<GroupId> = Vec::new();
        let mut slots = Vec::with_capacity(vars.len());
        for v in vars {
            let (g, c) = self.lookup_var(v)?;
            if !gids.contains(&g) {
                gids.push(g);
            }
            slots.push((g, c));
        }
        Ok((gids, slots))
    }

    fn run_rank(
        &mut self,
        outputs: &[String],
        mechanism: Mechanism,
        over: &[String],
        filter: ProcessFilter,
        objective: &ObjExpr,
    ) -> Result<(), ZqlError> {
        if outputs.len() != over.len() {
            return Err(sem(format!(
                "{} outputs for {} iterated variables (they map positionally)",
                outputs.len(),
                over.len()
            )));
        }
        let (gids, slots) = self.iteration_groups(over)?;
        let lens: Vec<usize> = gids.iter().map(|&g| self.group_len(g)).collect();
        let total: usize = lens.iter().product();
        // Score every combination across the shared pool (the objective
        // may hide expensive distance computations); results come back in
        // combination order, so ranking stays deterministic.
        let this: &Exec<'_> = self;
        let threads = if total >= PROCESS_PARALLEL_MIN { 0 } else { 1 };
        let mut scored: Vec<(usize, f64)> = parallel::try_parallel_map(total, threads, |flat| {
            let mut env = new_env(&gids);
            place(flat, &lens, &mut env);
            Ok::<_, ZqlError>((flat, this.eval_obj(objective, &env)?))
        })?;
        match mechanism {
            Mechanism::ArgMin => scored.sort_by(|a, b| a.1.total_cmp(&b.1)),
            Mechanism::ArgMax => scored.sort_by(|a, b| b.1.total_cmp(&a.1)),
            Mechanism::ArgAny => {}
        }
        let kept: Vec<&(usize, f64)> = match filter {
            ProcessFilter::TopK(k) => scored.iter().take(k).collect(),
            ProcessFilter::Threshold { op, value } => {
                scored.iter().filter(|(_, s)| op.eval(*s, value)).collect()
            }
            ProcessFilter::None => scored.iter().collect(),
        };
        // Output group: lockstep tuples, outputs[i] ← over[i]'s value.
        let flats = kept.iter().map(|&&(flat, _)| flat);
        let domain = self.bind_combos(flats, &gids, &lens, &slots);
        for (out, src) in outputs.iter().zip(over) {
            if let Some(attr) = self.var_attr.get(src).cloned() {
                self.var_attr.insert(out.clone(), attr);
            }
        }
        self.new_group(outputs.to_vec(), domain)?;
        Ok(())
    }

    fn run_representative(
        &mut self,
        outputs: &[String],
        k: usize,
        over: &[String],
        component: &str,
    ) -> Result<(), ZqlError> {
        if outputs.len() != over.len() {
            return Err(sem(
                "R outputs map positionally to its variables".to_string()
            ));
        }
        let (gids, slots) = self.iteration_groups(over)?;
        let lens: Vec<usize> = gids.iter().map(|&g| self.group_len(g)).collect();
        let total: usize = lens.iter().product();
        let this: &Exec<'_> = self;
        let threads = if total >= PROCESS_PARALLEL_MIN { 0 } else { 1 };
        let series: Vec<Series> = parallel::try_parallel_map(total, threads, |flat| {
            let mut env = new_env(&gids);
            place(flat, &lens, &mut env);
            this.component_series(component, &env).cloned()
        })?;
        let picked = self.engine.registry.r(&series, k);
        let domain = self.bind_combos(picked, &gids, &lens, &slots);
        for (out, src) in outputs.iter().zip(over) {
            if let Some(attr) = self.var_attr.get(src).cloned() {
                self.var_attr.insert(out.clone(), attr);
            }
        }
        self.new_group(outputs.to_vec(), domain)?;
        Ok(())
    }

    /// The output tuples of the combinations `flats` (row-major over
    /// `gids`): each variable's value, per its `(group, column)` slot.
    fn bind_combos(
        &self,
        flats: impl IntoIterator<Item = usize>,
        gids: &[GroupId],
        lens: &[usize],
        slots: &[(GroupId, usize)],
    ) -> Vec<Vec<AxisValue>> {
        let mut env = new_env(gids);
        flats
            .into_iter()
            .map(|flat| {
                place(flat, lens, &mut env);
                slots
                    .iter()
                    .map(|&(g, c)| self.groups[g].domain[env_pos(&env, g)][c].clone())
                    .collect()
            })
            .collect()
    }

    /// The series of `component` at the variable assignment `env`.
    fn component_series(&self, name: &str, env: &Env) -> Result<&Series, ZqlError> {
        let comp = self
            .components
            .get(name)
            .ok_or_else(|| sem(format!("unknown component '{name}'")))?;
        let mut idx = 0usize;
        for &g in &comp.dims {
            let i = env_get(env, g).ok_or_else(|| {
                sem(format!(
                    "component '{name}' needs an index for variable group ({})",
                    self.groups[g].vars.join(", ")
                ))
            })?;
            idx = idx * self.group_len(g) + i;
        }
        if comp.dims.is_empty() && comp.len() != 1 {
            return Err(sem(format!(
                "component '{name}' has {} visualizations but no iterating variable",
                comp.len()
            )));
        }
        comp.series[idx]
            .as_ref()
            .ok_or_else(|| sem(format!("component '{name}' not fetched before use")))
    }

    fn eval_obj(&self, expr: &ObjExpr, env: &Env) -> Result<f64, ZqlError> {
        Ok(match expr {
            ObjExpr::T(f) => self.engine.registry.t(self.component_series(f, env)?),
            ObjExpr::D(a, b) => self.engine.registry.d(
                self.component_series(a, env)?,
                self.component_series(b, env)?,
            ),
            ObjExpr::Neg(inner) => -self.eval_obj(inner, env)?,
            ObjExpr::UserFn { name, args } => {
                let series: Vec<Series> = args
                    .iter()
                    .map(|a| self.component_series(a, env).cloned())
                    .collect::<Result<_, _>>()?;
                self.engine
                    .registry
                    .call_user(name, &series)
                    .ok_or_else(|| sem(format!("unknown function '{name}'")))?
            }
            ObjExpr::InnerAgg { op, vars, expr } => {
                let (gids, _) = self.iteration_groups(vars)?;
                for &g in &gids {
                    if env_get(env, g).is_some() {
                        return Err(sem(
                            "inner aggregation variables must differ from the outer iteration"
                                .to_string(),
                        ));
                    }
                }
                let lens: Vec<usize> = gids.iter().map(|&g| self.group_len(g)).collect();
                let total: usize = lens.iter().product();
                let mut acc: f64 = match op {
                    InnerOp::Min => f64::INFINITY,
                    InnerOp::Max => f64::NEG_INFINITY,
                    InnerOp::Sum | InnerOp::Avg => 0.0,
                };
                // The outer assignment, then the inner groups' positions.
                let mut inner_env: Vec<(GroupId, usize)> = env.to_vec();
                inner_env.extend(new_env(&gids));
                for flat in 0..total {
                    place(flat, &lens, &mut inner_env[env.len()..]);
                    let v = self.eval_obj(expr, &inner_env)?;
                    match op {
                        InnerOp::Min => acc = acc.min(v),
                        InnerOp::Max => acc = acc.max(v),
                        InnerOp::Sum | InnerOp::Avg => acc += v,
                    }
                }
                if *op == InnerOp::Avg && total > 0 {
                    acc /= total as f64;
                }
                acc
            }
        })
    }
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// An assignment of `gids`, every position 0 until [`place`]d.
fn new_env(gids: &[GroupId]) -> Vec<(GroupId, usize)> {
    gids.iter().map(|&g| (g, 0)).collect()
}

/// Write combination `flat` of groups sized `lens` into `env`'s
/// positions, row-major (the last group varies fastest).
fn place(mut flat: usize, lens: &[usize], env: &mut Env) {
    for (slot, &len) in env.iter_mut().zip(lens).rev() {
        slot.1 = flat % len;
        flat /= len;
    }
}

fn env_get(env: &Env, gid: GroupId) -> Option<usize> {
    env.iter().find(|&&(g, _)| g == gid).map(|&(_, i)| i)
}

/// Position of a group every cell of the iteration assigns.
fn env_pos(env: &Env, gid: GroupId) -> usize {
    env_get(env, gid).expect("group assigned by the iteration")
}

/// Same batch key: everything but the z *values* and y.
fn same_batch(a: &CellSpec, b: &CellSpec) -> bool {
    a.x == b.x
        && a.viz.x_bin == b.viz.x_bin
        && a.viz.y_agg == b.viz.y_agg
        && a.predicate == b.predicate
        && a.z.len() == b.z.len()
        && a.z.iter().zip(&b.z).all(|((x, _), (y, _))| x == y)
}

/// Borrowed keys bucketed by hash. A lookup compares the key with every
/// stored key of its hash, so it answers exactly as `Vec::contains`
/// would, also for `Value`'s non-transitive `==`: `Int(0)` equals both
/// `0.0` and `-0.0`, which differ, and a `HashSet` holding one "equal"
/// key in place of two would miss the other.
struct Members<'a, K: ?Sized> {
    hasher: RandomState,
    buckets: HashMap<u64, Vec<&'a K>>,
}

impl<'a, K: Hash + PartialEq + ?Sized> Members<'a, K> {
    fn new() -> Self {
        Members {
            hasher: RandomState::new(),
            buckets: HashMap::new(),
        }
    }

    fn contains(&self, key: &K) -> bool {
        let bucket = self.buckets.get(&self.hasher.hash_one(key));
        bucket.is_some_and(|b| b.contains(&key))
    }

    /// Inserts `key` unless an equal key is present; true if inserted.
    fn insert_new(&mut self, key: &'a K) -> bool {
        let bucket = self.buckets.entry(self.hasher.hash_one(key)).or_default();
        let new = !bucket.contains(&key);
        if new {
            bucket.push(key);
        }
        new
    }
}

impl<'a, K: Hash + PartialEq + ?Sized> FromIterator<&'a K> for Members<'a, K> {
    /// Every key, duplicates included.
    fn from_iter<I: IntoIterator<Item = &'a K>>(keys: I) -> Self {
        let mut members = Members::new();
        for key in keys {
            let hash = members.hasher.hash_one(key);
            members.buckets.entry(hash).or_default().push(key);
        }
        members
    }
}

/// `out` extended by each item of `more` whose key is not already in it:
/// the hashed form of "push unless `out.contains`", first occurrence
/// kept. Items already in `out` are not deduplicated.
fn union_by<T, K: Hash + PartialEq + ?Sized>(
    mut out: Vec<T>,
    more: Vec<T>,
    key: impl Fn(&T) -> &K,
) -> Vec<T> {
    let keep: Vec<bool> = {
        let mut seen: Members<K> = out.iter().map(&key).collect();
        more.iter().map(|i| seen.insert_new(key(i))).collect()
    };
    out.extend(
        more.into_iter()
            .zip(keep)
            .filter_map(|(i, k)| k.then_some(i)),
    );
    out
}

/// The items of `lhs` whose key is (`present`) or is not (`!present`)
/// the key of an item of `rhs`, order kept.
fn filter_by<T, K: Hash + PartialEq + ?Sized>(
    lhs: Vec<T>,
    rhs: &[T],
    present: bool,
    key: impl Fn(&T) -> &K,
) -> Vec<T> {
    let rhs: Members<K> = rhs.iter().map(&key).collect();
    lhs.into_iter()
        .filter(|i| rhs.contains(key(i)) == present)
        .collect()
}

fn combine_measures(g: &zv_storage::GroupSeries, y_idxs: &[usize]) -> Series {
    let pts: Vec<(f64, f64)> =
        g.xs.iter()
            .enumerate()
            .filter_map(|(i, x)| {
                x.as_f64()
                    .map(|xf| (xf, y_idxs.iter().map(|&yi| g.ys[yi][i]).sum::<f64>()))
            })
            .collect();
    if pts.len() == g.xs.len() {
        // The kernel guarantees xs ascending and unique within a group, so
        // the sort + dedup scan of `Series::new` is skipped.
        Series::from_sorted_points(pts)
    } else {
        // Categorical x: index positions keep alignment stable.
        let ys: Vec<f64> = (0..g.xs.len())
            .map(|i| y_idxs.iter().map(|&yi| g.ys[yi][i]).sum::<f64>())
            .collect();
        Series::from_ys(&ys)
    }
}

fn contains_order(expr: &NameExpr) -> bool {
    match expr {
        NameExpr::Order(_) => true,
        NameExpr::Ref(_) => false,
        NameExpr::Add(a, b) | NameExpr::Sub(a, b) | NameExpr::Intersect(a, b) => {
            contains_order(a) || contains_order(b)
        }
        NameExpr::Index(a, _) | NameExpr::Slice(a, _, _) | NameExpr::Range(a) => contains_order(a),
    }
}

fn cell_matches(cell: &CellSpec, attr: Option<&String>, value: &AxisValue) -> bool {
    match value {
        AxisValue::Val(v) => match attr {
            Some(a) => cell.z.iter().any(|(za, zv)| za == a && zv == v),
            None => cell.z.iter().any(|(_, zv)| zv == v),
        },
        AxisValue::Attr(a) => {
            let name = a.attrs().join("×");
            cell.x.attrs().join("×") == name || cell.y.attrs().join("+") == name
        }
        AxisValue::Viz(v) => cell.viz == *v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zv_datagen::sales::{self, SalesConfig};
    use zv_storage::BitmapDb;

    #[test]
    fn numeric_z_resolves_distinct_values_once_per_execution() {
        // `'year'.*` is listed twice and `v2` is a strict subset of it,
        // so planning asks for the years' values and cardinality four
        // times; an int column answers each with a full scan + sort.
        let table = sales::generate(&SalesConfig {
            rows: 5_000,
            products: 8,
            ..Default::default()
        });
        let query = parse_query(
            "name | x | y | z | process\n\
             f1 | 'month' | 'sales' | v1 <- 'year'.* | v2 <- argmax(v1)[k=2] T(f1)\n\
             *f2 | 'month' | 'sales' | v2 |\n\
             *f3 | 'month' | 'profit' | v3 <- 'year'.* |",
        )
        .unwrap();
        for opt in [
            OptLevel::NoOpt,
            OptLevel::IntraLine,
            OptLevel::IntraTask,
            OptLevel::InterTask,
        ] {
            let engine = ZqlEngine::with_opt_level(Arc::new(BitmapDb::new(table.clone())), opt);
            let (inputs, ctx) = (HashMap::new(), QueryCtx::new());
            let mut exec = Exec::new(&engine, &inputs, &ctx);
            let out = exec.run(&query).unwrap();
            assert_eq!(out.visualizations.len(), 2 + 7, "{opt:?}");
            assert_eq!(exec.distinct_scans, 1, "{opt:?}");
        }
    }
}
