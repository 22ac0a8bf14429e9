//! The rule table: one row per rule, and the only place rules are listed.
//! A row is the rule's doc comment, its id, and its one-line description;
//! `rule_table!` turns the rows into the [`Rule`] enum (the doc comment is
//! the variant's rustdoc) *and* into the `const` table behind
//! [`Rule::id`], [`Rule::description`], [`Rule::explain`] and [`Rule::ALL`]
//! — so what `cargo xtask lint --explain L0NN` prints cannot drift from the
//! docs, and a rule cannot exist without its row.
//!
//! Ids are never reused: L002–L004 are retired (their checks are part of
//! L013, L011 and L012).

use std::fmt;

/// One row of the rule table.
struct Row {
    rule: Rule,
    id: &'static str,
    description: &'static str,
    explain: &'static str,
}

macro_rules! rule_table {
    ($($(#[doc = $doc:expr])* $rule:ident = $description:literal;)*) => {
        /// Rule identifiers, one per check in the catalog.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Rule {
            $($(#[doc = $doc])* $rule,)*
        }

        /// In declaration order, so `rule as usize` indexes it.
        const TABLE: &[Row] = &[$(Row {
            rule: Rule::$rule,
            id: stringify!($rule),
            description: $description,
            explain: concat!($($doc, "\n"),*),
        },)*];

        impl Rule {
            pub const ALL: [Rule; TABLE.len()] = [$(Rule::$rule),*];
        }
    };
}

impl Rule {
    fn row(self) -> &'static Row {
        &TABLE[self as usize]
    }

    pub fn id(self) -> &'static str {
        self.row().id
    }

    /// Parses a rule id (`"L011"`); retired and unknown ids are `None`.
    pub fn from_id(id: &str) -> Option<Rule> {
        TABLE.iter().find(|row| row.id == id).map(|row| row.rule)
    }

    /// One-line rule description.
    pub fn description(self) -> &'static str {
        self.row().description
    }

    /// The full rationale/example/escape-hatch text for `--explain`: the
    /// variant's own doc comment.
    pub fn explain(self) -> &'static str {
        self.row().explain
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

rule_table! {
    /// L001 — cross-module `Ordering::Relaxed` without an audit note.
    ///
    /// Why: a Relaxed atomic shared across modules is usually meant to
    /// synchronize something; Relaxed gives no happens-before edge, so a
    /// reader can observe stale data forever.
    ///
    /// Example: `counters.rows.fetch_add(1, Ordering::Relaxed)` read from
    /// another module's reporting path.
    ///
    /// Escape: `// relaxed-ok: <reason>` on the site or the line above,
    /// when the value is a statistic and staleness is acceptable.
    L001 = "Cross-module Ordering::Relaxed without an audit note";

    /// L005 — `Condvar::wait` outside a predicate loop.
    ///
    /// Why: condition variables wake spuriously and after missed
    /// notifications; a single un-looped wait proceeds on a false premise.
    ///
    /// Example: `let g = cv.wait(g);` not wrapped in `while !*g { … }`.
    ///
    /// Escape: `// lint-ok: L005 <reason>` (rarely right).
    L005 = "Condvar::wait outside a predicate loop";

    /// L006 — missing `# Errors`/`# Panics` docs on public API
    /// (crates/types, crates/core).
    ///
    /// Why: failure modes are part of the contract; undocumented ones leak
    /// panics into callers that believed the API total.
    ///
    /// Escape: `// lint-ok: L006 <reason>`; prefer writing the section.
    L006 = "Missing # Errors/# Panics docs on public API";

    /// L007 — wildcard arm in a `match` on a workspace protocol enum
    /// (`*Event`/`*Cmd`/`*Msg`/`*Cause`/`*Error`).
    ///
    /// Why: `_ =>` swallows variants added later; protocol handling must
    /// fail to compile when the protocol grows.
    ///
    /// Escape: `// lint-ok: L007 <reason>`; prefer listing every variant.
    L007 = "Wildcard arm in a match on a workspace protocol enum";

    /// L008 — buffer/cache resource leaked on an early-exit path.
    ///
    /// Why: a popped/taken/acquired resource that an early `return`, `?`,
    /// or `break` abandons is lost accounting — chunk leaks surface as
    /// stalls later.
    ///
    /// Escape: `// lint-ok: L008 <reason>`; prefer restructuring so every
    /// path hands the value off.
    L008 = "Buffer/cache resource leaked on an early-exit path";

    /// L009 — feature declaration, forwarding chain, or gate inconsistency.
    ///
    /// Why: a `cfg(feature)` on an undeclared feature silently compiles
    /// out; a missing forward (`dep/feat`) makes a workspace feature
    /// half-enabled.
    ///
    /// Escape: `// lint-ok: L009 <reason>` on a source-level finding; a
    /// manifest-level one has no escape — fix the declaration.
    L009 = "Feature declaration, forwarding chain, or gate inconsistency";

    /// L010 — metric/event drift between code and the DESIGN.md catalog.
    ///
    /// Why: the observability catalog is the contract dashboards and tests
    /// read; an unregistered metric or a stale catalog row both lie.
    ///
    /// Escape: `// lint-ok: L010 <reason>` on a source-level finding; a
    /// catalog-side one has no escape — update DESIGN.md's catalog block.
    L010 = "Metric/event drift between code and the DESIGN.md catalog";

    /// L011 — cycle in the wait-for graph of locks, channels and condvars,
    /// across crates.
    ///
    /// Why: two threads taking the same locks in opposite orders can each
    /// hold one and wait for the other — and locks are not the only wait
    /// edges. A thread that `recv`s while holding lock `L` waits for a
    /// producer; if every producer must take `L` to send, nobody progresses.
    /// The analyzer puts lock-under-lock edges, channel data/capacity facets
    /// and condvar edges into one graph and reports every cycle, saying
    /// whether it is a lock-order cycle or passes through a `chan:`/`cv:`
    /// node.
    ///
    /// Example: fn A locks `catalog` then `cache` while fn B locks `cache`
    /// then `catalog`; or the scheduler holds `state` and `recv`s acks while
    /// the writer must lock `state` before `send`ing them.
    ///
    /// Escape: `// lint-ok: L011 <reason>` on an edge site — only when the
    /// two orders are provably never concurrent, or an unguarded producer
    /// keeps the channel live. The global lock order lives in DESIGN.md
    /// "Concurrency invariants".
    L011 = "Cycle in the lock/channel/condvar wait-for graph across the workspace";

    /// L012 — blocking while a lock guard is live, directly or through calls.
    ///
    /// Why: a full (or empty) channel, a `sleep`, a `join` or a condvar wait
    /// blocks while the guard starves every other thread needing the lock —
    /// and the guard-holding frame may be many calls above the block:
    /// `flush()` three frames down does `recv`, `sleep`, `join`, or disk
    /// I/O. The guard-tracking walk flags the blocking operation itself when
    /// it sits under a live guard, and, through each function's transitive
    /// blocking set on the call graph, calls made under a live guard into a
    /// blocking closure. Plain `.lock()` nesting is L011's domain and not
    /// counted.
    ///
    /// Example: `let g = state.lock(); tx.send(item);`, or
    /// `let g = cache.lock(); flush_writes();` where
    /// `flush_writes → barrier → ack_rx.recv()`.
    ///
    /// Escape: `// unblock-ok: <reason>` (or `// lint-ok: L012 <reason>`)
    /// on the site, when it cannot actually block here; prefer dropping the
    /// guard or a try_/timeout variant.
    L012 = "Blocking while a lock guard is live, directly or through calls";

    /// L013 — panic on a spawned thread: in the closure or anything it calls.
    ///
    /// Why: a panic in a worker thread kills it silently; the scan hangs or
    /// loses data instead of failing with an error — whether the `unwrap`
    /// sits in the spawn closure itself or three helpers deep. Reachability
    /// from every `spawn` site is closed over the call graph; `unwrap`,
    /// `expect`, and `panic!`-family macros in the closure body and in
    /// every reached function are reported (in
    /// core/engine/storage/simio/obs). `assert!` is exempt as a deliberate
    /// invariant check, as is `.lock().unwrap()` (it re-raises a panic that
    /// already happened); slice indexing is out of scope (documented
    /// unsoundness).
    ///
    /// Example: `thread::spawn(move || { rx.recv().unwrap(); })`.
    ///
    /// Escape: `// lint-ok: L013 <reason>` on the panic site, when the
    /// invariant provably holds on every worker path; prefer sending
    /// `Err(..)` on the scan's output channel.
    L013 = "Panic in a spawned-thread body or reachable from it through calls";

    /// L014 — unordered iteration flowing into an order-sensitive sink.
    ///
    /// Why: the serial≡parallel differential guarantee and the journal/
    /// trace exports promise byte-identical output; `HashMap`/`HashSet`
    /// iteration order is arbitrary and changes across runs. Iterating an
    /// unordered container into `merge`, string/output building, or
    /// journal/trace recording without a sort (or BTree re-collection, or
    /// keyed `entry()` insertion) breaks that promise nondeterministically.
    ///
    /// Example: `for (k, v) in groups { out.push_str(&render(k, v)); }`.
    ///
    /// Escape: `// lint-ok: L014 <reason>` on the iteration site, when the
    /// sink is provably order-insensitive.
    L014 = "Unordered iteration flowing into an order-sensitive sink";

    /// L015 — nondeterministic effect reachable inside a declared
    /// deterministic zone.
    ///
    /// Why: the oracle-identical fault-schedule suite, the bit-identical
    /// parallel merge, and the virtual-clock serving/tracing guarantees all
    /// assume the zoned code never observes wall clock, OS entropy, or the
    /// environment. The analyzer infers per-function effect sets from
    /// lexical seeds (`Instant::now`, `SystemTime::now`, `RandomState` /
    /// default-hashed `HashMap` construction, `std::env`) and closes them
    /// over the call graph; a `// lint-zone: deterministic` marker above a
    /// fn (or at file level) asserts the zone, and any banned effect the
    /// zone transitively reaches is reported with one concrete call path.
    ///
    /// Example: a merge kernel three calls above a helper that stamps
    /// `Instant::now()` into its output.
    ///
    /// Escape: `// effect-ok: <reason>` on the seed site removes that seed
    /// from inference everywhere (it is audited); `// lint-ok: L015
    /// <reason>` on the zone fn silences the zone.
    L015 = "Nondeterministic effect reachable inside a declared deterministic zone";

    /// L016 — device I/O on a READ/WRITE path not covered by the retry
    /// layer.
    ///
    /// Why: the PR 3 fault-tolerance contract says every device interaction
    /// on the scan and persistence paths heals transient faults inside
    /// `with_retry`. A bare `disk.read`/`write_at`/`append` outside it is a
    /// crash on the first injected fault. Coverage is computed to a fixed
    /// point: a seed is covered when it sits lexically inside a call to
    /// `with_retry` (or a forwarding wrapper like `io_retry`, detected
    /// because it takes a closure and calls a known wrapper), or when every
    /// caller of its function reaches it under such a call.
    ///
    /// Example: `self.db.load_chunk(..)` on a fallback path, outside the
    /// `io_retry` closure its sibling call sites use.
    ///
    /// Escape: `// lint-ok: L016 <reason>` on the I/O site, when the path
    /// deliberately bypasses retry (e.g. startup recovery that treats any
    /// failure as corruption).
    L016 = "Device I/O on a READ/WRITE path not covered by the retry layer";

    /// L017 — workspace `Result` silently discarded in a pipeline crate.
    ///
    /// Why: an error that is dropped (`let _ = flush(..)`), chained into an
    /// unread `.ok()`, or replaced by `.unwrap_or*` never reaches the
    /// scan's error channel or the journal — the operator sees a healthy
    /// pipeline losing data. Only calls whose every workspace definition
    /// returns a workspace-error `Result` are tracked (ambiguous names are
    /// skipped); `?`, `match`, and named bindings are consumption.
    ///
    /// Example: `let _ = store_chunk(&table, &chunk);` on the WRITE path.
    ///
    /// Escape: `// lint-ok: L017 <reason>` on the call site, when the
    /// fallback is the designed degradation and is observable elsewhere.
    L017 = "Workspace Result silently discarded in a pipeline crate";

    /// L018 — effect-contract drift between code and the DESIGN.md effect
    /// catalog.
    ///
    /// Why: each crate declares the ambient effects it is allowed
    /// (WallClock, OsEntropy, EnvRead, RealIo, UnorderedIter, DeviceIo) in
    /// a `lint-catalog:effects` fenced block; reviewers reason about
    /// determinism and fault tolerance from that table. The check runs both
    /// directions: an effect the code exhibits but the contract omits, and
    /// a declared effect no code exhibits, both fail. Contracts count
    /// audited (`effect-ok`) seeds too — declaring the effect is the
    /// allowance; the audit only escapes zone inference.
    ///
    /// Example: someone adds `Instant::now()` to `crates/storage` without
    /// widening its contract.
    ///
    /// Escape: update the catalog block (the usual fix), or `// lint-ok:
    /// L018 <reason>` on the seed site for a deliberate one-off.
    L018 = "Effect-contract drift between code and the DESIGN.md effect catalog";
}
