// Package topkmon is a Go reproduction of "Continuous Monitoring of Top-k
// Queries over Sliding Windows" (Mouratidis, Bakiras, Papadias — SIGMOD
// 2006), grown into a concurrent monitoring system.
//
// The library continuously evaluates many long-running top-k preference
// queries over a sliding window of streaming multidimensional tuples. The
// valid tuples live in main memory, indexed by a regular grid, and a
// shared query index (in place of the paper's per-cell influence lists)
// tells each grid event which queries it concerns; two maintenance
// policies are provided — TMA
// (recompute on result expiration) and SMA (k-skyband pre-computation of
// future results) — together with the TSL baseline (Fagin's threshold
// algorithm plus materialized top-k views) the paper compares against.
//
// Beyond the paper, the engine scales across cores: pkg/topkmon can run N
// independent engine shards with results provably identical to the single
// engine on the same stream, in either of two layouts selected by
// WithPartitioning:
//
//   - PartitionQueries (default): every shard indexes the full stream and
//     maintains a disjoint hash-slice of the query set. Query maintenance
//     — the dominant cost at large Q — parallelizes perfectly, but the
//     tuple index is replicated, so memory and ingest work grow ×shards.
//   - PartitionData: each shard indexes a disjoint hash-slice of the
//     tuples (O(N/shards) index memory per shard, O(N) in total), every
//     query runs on every shard, and the router k-way merges the
//     per-shard partial top-k lists into the exact global result, paying
//     a per-update merge cost instead of the memory blow-up. Choose it
//     for shard counts beyond ~8 or windows too large to replicate.
//
// Under query partitioning, the shard a query lives on is decided by a
// pluggable placement layer and can change at runtime:
//
//   - WithPlacement selects the placement policy — PlacementHash (the
//     default splitmix hash: balanced counts, oblivious to cost) or
//     PlacementLeastLoaded (new queries go to the shard with the lowest
//     attributed cost) — or any custom deterministic Placement.
//   - WithRebalance(interval, threshold) turns on cost-aware rebalancing:
//     the engine attributes maintenance work to each query (influence
//     events, cells processed, heap operations — counters, not wall
//     time, so decisions reproduce run to run), and every
//     interval cycles the monitor compares per-shard cost accrued since
//     the last pass; when max/mean exceeds threshold it migrates the most
//     expensive movable queries from the hottest shard to the coldest.
//   - Live migration moves a query's complete state between engines at a
//     cycle barrier: core.Engine.ExportQuery snapshots the spec, the
//     admission filters, the TMA top list or SMA skyband (with dominance
//     counters) or threshold set, the reporting baseline and the
//     attributed cost; ImportQuery installs it on the target engine
//     without recomputation, re-deriving only the query-index entry from
//     the snapshot's bound. Both engines index the identical broadcast
//     stream, so
//     the moved query's subsequent behavior is byte-identical, a promise
//     the differential harness enforces by forcing migrations mid-run and
//     comparing transcripts against the single engine.
//   - Monitor.ShardLoads reports per-shard query counts, EWMA cycle time,
//     attributed cost and memory; Monitor.MigrateQuery is the manual
//     override, and Monitor.MigrateQueries moves a whole batch of queries
//     under a single cycle-barrier drain (every drain stalls all shards
//     once, so multi-move passes — including the rebalancer's own — batch
//     behind one); Stats.Migrations counts executed moves.
//
// When does rebalancing pay? Hash placement balances query *counts*;
// per-query cost varies with k and influence-cell volume by orders of
// magnitude, so a few hot queries can clump and one shard bounds the
// cycle time. Rebalancing pays when per-query costs are skewed and
// queries outnumber shards severalfold (the `rebalance` experiment sweep
// measures it: max-shard attributed cost drops 25-40% under a Zipf-k
// workload at 4-16 shards). Prefer static hash when query costs are
// near-uniform or the query set churns faster than costs accumulate —
// every pass drains the shard queues, so needless rebalancing just adds
// barriers. Under data partitioning every query runs on every shard and
// there is nothing to place; skew there means the tuple hash is
// unbalanced.
//
// Orthogonally to partitioning, WithPipeline(depth) decouples ingestion
// from query maintenance: Ingest enqueues a batch into a bounded queue
// and returns immediately, cycles run behind the caller's back, and each
// cycle's merged updates arrive in order on the Updates channel — the
// exact per-query Update sequence synchronous Step calls would return,
// verified continuously by the internal/difftest differential fuzz
// harness. Guarantees and trade-offs:
//
//   - Ordering: batches apply in Ingest order; Register/Unregister/Result
//     and counter reads are barriers, so any interleaving with Ingest
//     equals the same interleaving with Step. Flush waits until all prior
//     batches are applied and their updates delivered; Close drains, then
//     closes the Updates channel.
//   - Backpressure: WithBackpressure selects Block (lossless, Ingest
//     waits at depth — the default) or BackpressureDropOldest (the oldest
//     queued batch is shed before application, counted in
//     Stats.DroppedBatches) for producers that must never stall.
//     WithAdaptiveDepth(max) additionally lets the queue grow under
//     sustained burst (doubling up to max each time the producer hits the
//     bound) and shrink back once the runner drains it; the peak
//     occupancy is reported in Stats.QueueHighWater.
//   - Overlap: under query partitioning, cycles additionally overlap
//     *each other* — shards consume bounded per-shard job queues, so a
//     fast shard runs ahead while the router merges finished cycles.
//     Under data partitioning the router's per-cycle merge is a barrier,
//     so the pipeline overlaps ingestion and delivery with cycles only.
//   - Prefer pipelined ingestion when the producer must not block on
//     cycle latency or when shard counts (and cores) are high enough that
//     cycle/delivery overlap pays; prefer synchronous Step when the
//     caller needs each cycle's updates before producing the next batch.
//
// # Overload and admission control
//
// Backpressure policies answer a full queue; they do not answer sustained
// overload, where the producer outruns the engine indefinitely and the
// only question is which resource fails first (latency under Block,
// data under DropOldest, memory under either). WithAdmission installs a
// load-shedding governor (internal/admission) ahead of the pipelined
// ingest queue that turns sustained overload into bounded, observable
// staleness. It is a deterministic three-state machine:
//
//   - Normal: everything is admitted; the only cost is one uncontended
//     lock round-trip per batch (pinned allocation-free and under 2% of
//     a steady-state cycle by the AdmissionOverhead benchmarks and
//     their benchreport ratio invariant).
//   - Shedding, entered when the smoothed queue pressure — the EWMA of
//     ingest-queue occupancy, or of the busiest shard's job-queue
//     occupancy, whichever is higher, so one hot shard triggers shedding
//     before the global queue backs up — crosses the high watermark, or
//     when cycle latency breaches AdmissionConfig.CycleTarget. Two
//     controllers thin the stream: an AIMD token bucket converges the
//     admitted-batch rate onto the measured drain rate (additive raise
//     per healthy cycle, multiplicative cut per breach, floored at
//     MinRate so the stream is never starved), and a RED-style dropper
//     sheds probabilistically with probability ramping from zero at the
//     low watermark to MaxDropProb at the high one — random early
//     dropping instead of deterministic tail-dropping, from a seeded
//     PRNG so runs reproduce. Shedding exits to Normal only after
//     HealthyExit consecutive healthy drains below the low watermark
//     (hysteresis against square-wave flapping).
//   - Critical, forced from any state when the larger of the engine's
//     cap-aware footprint and the process heap crosses
//     MemHighFraction of the WithMemoryLimit bytes. Critical admits
//     nothing but deletions: arrivals are stripped from admitted batches
//     while the cycles themselves still run, so window expiry keeps
//     shrinking state instead of the queue pinning memory in place. It
//     steps back down to Shedding (never straight to Normal) once memory
//     falls below MemLowFraction and the queue has drained.
//
// The bounded-staleness contract: a governed monitor under overload
// serves results that are exact for the admitted subsequence of the
// stream — the transcript is byte-identical to a reference engine fed
// exactly the admitted batches (shed batches skipped, Critical batches
// arrivals-stripped), a property the overload differential suite
// enforces across seeds and engine modes. Loss is never silent:
// Stats.DroppedBatches/DroppedTuples count it, AdmissionStats reports
// the governor's rate and per-state drain counters (SheddingDrains and
// CriticalDrains are the staleness figures: cycles run while degraded),
// AdmissionState is a lock-free poll, and on a checkpointed monitor every
// shed batch writes an advisory WAL drop record. The overload experiment
// (go run ./cmd/experiments -exp overload) sweeps paced arrival rates
// from 1x to 16x the calibrated cycle budget across shard counts and
// tabulates drop fraction, degraded cycles, and peak memory.
//
// Choosing a policy: Block alone when loss is unacceptable and the
// producer can stall (lossless, unbounded producer latency under
// overload); DropOldest alone when the producer must never stall and
// freshest-data-wins (sheds the oldest queued batch, keeps the newest);
// admission control over either when overload is sustained rather than
// bursty — it sheds early, proportionally and reproducibly instead of
// tail-dropping whatever the queue happened to hold, bounds memory, and
// under Block converts the stall into a typed ErrOverloaded the producer
// can back off on.
//
// The per-cycle hot path is columnar and batch-scored. Each grid cell
// stores its tuples as a struct-of-arrays block — one flat dims-strided
// coordinate array with parallel id/sequence/timestamp/pointer columns.
// A cycle groups its arrivals by destination cell, appends each group to
// the cell's block, and scores the whole new sub-block against the
// influenced queries with calls into the internal/simd
// kernels (hand-written AVX2/NEON assembly selected by runtime feature
// detection, falling back to four-accumulator unrolled Go — every leg
// bit-identical to pointwise scoring, a property the kernel equivalence
// tests, a fuzz entry and the differential harness all pin, since scores
// feed total-order comparisons; see "SIMD dispatch" below). Expirations
// batch the same way. Per-query
// outcomes are order-independent within a cycle (TMA's bounded top list
// and threshold sets are set-semantics; admitted SMA arrivals are
// re-sorted into sequence order before skyband insertion), so transcripts
// are byte-identical to the per-tuple path across all engine modes.
// Per-cycle scratch — expiration runs, cell groupings, score buffers,
// result diffs, search heaps and top lists — is pooled on the engine and
// searcher: a steady-state cycle whose results do not change performs no
// allocations beyond the Update payloads it returns.
//
// Event delivery batches across queries too: instead of the paper's
// per-query influence lists (O(queries × cells) memory, every arrival
// scored once per influenced query), the engine maintains one shared
// query index (internal/qindex). Queries clump into columnar clusters by
// preference-function family — weight vectors packed dims-strided next to
// a parallel bound column, exactly the layout the multi-query kernels
// want — and each cluster keeps the minimum of its members' kth-score
// bounds. A cycle probes the index once per touched cell: per-cell
// cluster upper bounds (cached, epoch-invalidated when a member's bound
// moves) prune whole clusters whose best member cannot be affected, a
// second filter scores the actual block against the cluster's weight
// envelope (the componentwise member maximum — one single-query kernel
// call bounding every member bitwise) and skips the cluster when even
// that cannot reach its minimum bound, surviving clusters score the
// cell's new sub-block for all members in one GEMM-shaped internal/simd
// call (DotBlockMulti and friends — four query rows share each
// coordinate load, every row bit-identical to the single-query kernel),
// and a per-member row-max filter delivers only the (member, block)
// pairs containing a score reaching that member's exact bound. Delivery
// is a superset of the influence region — handlers re-check scores
// against per-query state — so transcripts stay byte-identical to the
// naive reference the differential harness compares every mode against.
// The query index is the engine's only delivery path: a recomputation
// moves one bound instead of re-registering and walking influence lists,
// and a checkpoint or migration exports O(k) query state, not a cell
// list. The `querycount` experiment measures the payoff:
// per-cycle cost sublinear in registered queries out to 1M
// near-duplicate subscriptions, with index memory O(queries + cells).
//
// The performance trajectory is pinned by a benchmark-regression harness:
// internal/benchsuite defines the hot-path benchmarks (the Figure 14
// per-cycle benchmark plus InsertTupleBatch, ScoreBlock
// kernel-vs-pointwise, MultiQueryKernel multi-vs-per-query,
// QueryIndexProbe, the PubSubCycle query-count series and
// TopKComputation), reachable both via `go test -bench` and via `go run
// ./cmd/benchreport`, which emits BENCH_12.json (ns/op, allocs/op, MB/s
// per benchmark, plus the ScoreBlockLeg/MultiQueryKernelLeg per-leg
// series). CI regenerates the report on every push and gates it against
// the committed baseline at ±15%, plus hardware-independent speedup
// invariants (≥2x batch kernel vs pointwise, ≥2x multi-query kernel vs
// per-query loop, ≥1.5x hardware leg vs unrolled Go); a native arm64 job
// re-runs the kernel equivalence tests and fuzz smokes to pin
// bit-identity on a fusing architecture, and both arch jobs re-run the
// kernel suites under every TOPK_SIMD-forcible leg. Refresh the baseline
// with `go run ./cmd/benchreport -out BENCH_12.json` when a PR
// intentionally shifts it.
//
// # SIMD dispatch
//
// internal/simd ships four legs per kernel: AVX2 assembly (amd64,
// 4×float64 ymm lanes), NEON assembly (arm64, chained 2×float64
// q-register pairs), the 4-accumulator unrolled Go loop, and the plain
// scalar reference. Startup feature detection (CPUID/XGETBV on amd64;
// NEON is baseline on arm64) picks the widest leg the host supports;
// `TOPK_SIMD=scalar|unrolled|avx2|neon` forces one for tests and triage
// and panics if the host cannot run it, so a forced leg can never
// silently fall back. simd.SetLeg/ActiveLeg expose the same control to
// test code, and the forced-leg equivalence matrix runs the exhaustive
// (dims, n, nq) sweeps — unroll remainders, NaN/Inf/±0 — under every
// leg.
//
// The contract every default-tier leg obeys: bit-identical float64
// results. The assembly mirrors the scalar accumulation order exactly
// and rounds each intermediate product (vertical VMULPD/VADDPD and
// FMUL2D/FADD2D — never fused multiply-adds), so transcripts and
// checkpoints are portable across architectures and legs. The opt-in
// FMA tier (topkmon.WithFMAKernels; VFMADD231PD/FMLA in the *fma*.s
// files) trades that for one fewer rounding per term: it is ULP-bounded
// against the default tier — verified by the bounded-error differential
// mode — but strictly self-consistent within a run, because the fused
// scalar chains in point_fma.go are the single source of truth for both
// the assembly wrappers' tails and pointwise scoring. It is excluded
// from checkpoint/difftest lineages by default: a checkpoint recorded
// under one tier belongs to that tier. topklint's bitexact analyzer
// enforces the boundary mechanically — fused mnemonics are confined to
// *fma*.s files, math.FMA to *fma*.go files, and every contractible
// multiply-add shape elsewhere must carry an explicit float64() rounding
// conversion.
//
// # Invariants and annotations
//
// The engine's correctness story rests on invariants no test can pin
// exhaustively — transcripts must be a pure function of the input stream,
// floating-point scores must be bit-identical across batch/pointwise
// paths and across architectures, the hot path must not allocate, and
// locks must nest in one order. These are enforced mechanically by
// topklint (cmd/topklint), a go/analysis-style suite built on
// internal/analysis and run in CI as `go vet -vettool` on both amd64 and
// arm64. The invariants are declared in the source with //topk:
// directives:
//
//   - //topk:deterministic (package doc or function doc) scopes the
//     determinism rules: no time.Now/Since/Until, no unseeded math/rand,
//     no goroutine spawns or multi-case selects, and no map-range whose
//     iteration order can leak into an output slice, channel, or float
//     accumulation without an intervening sort.
//   - //topk:bitexact (package doc) scopes the float rules: math.FMA is
//     forbidden, any a*b±c shape must wrap the product in an explicit
//     float64(...) conversion (the gc compiler contracts multiply-adds
//     into fused FMA on arm64 but never on amd64, so the conversion is a
//     no-op on amd64 and makes arm64 bit-identical to it), build-tag
//     kernel legs must keep identical exported shapes, and functions
//     annotated //topk:acc N must carry exactly N accumulator chains in
//     their widest loop — the chain count fixes the rounding order.
//   - //topk:hot (function doc) marks hot-path functions: no defer, no
//     goroutine spawns, no variable-capturing closures, no fmt/errors/log
//     calls, no make(map)/make(chan), no string<->[]byte conversions.
//     Heap escapes inside hot functions are budgeted by the committed
//     allowlist internal/analysis/escapes.txt, checked in CI against
//     `go build -gcflags=-m` output and refreshed with
//     `go run ./cmd/topklint escapes -update` (amd64 only — escape
//     decisions are arch-dependent).
//   - //topk:lockrank N [leaf] (mutex field comment) declares the lock
//     order: a lock may only be acquired while holding locks of strictly
//     lower rank, and leaf locks (the innermost hot locks) additionally
//     forbid channel operations and calls to //topk:blocking functions
//     while held.
//
// A diagnostic that is a considered false positive is suppressed in place
// with `//topk:allow <analyzer> <reason>` on the flagged line or the line
// above; the reason is mandatory documentation, and suppressions are
// grep-able for audit. Run the suite locally with `go run ./cmd/topklint
// ./...` (exit 0 clean / 1 findings / 2 build error; -json for tooling,
// -fix to apply the suggested float64 conversions).
//
// Use pkg/topkmon — the public facade with functional options — as the
// entry point:
//
//	mon, _ := topkmon.New(2, topkmon.WithCountWindow(10000), topkmon.WithShards(4))
//	defer mon.Close()
//	q, _ := mon.RegisterTopK(topkmon.Linear(1, 2), 5)
//	updates, _ := mon.Step(ts, batch)
//
// Package layout:
//
//	pkg/topkmon        public API: Monitor facade, functional options, re-exports
//	internal/core      the monitoring engine, TMA and SMA (the paper, start here)
//	internal/shard     the sharded concurrent engine (N cores, same results)
//	internal/pipeline  async pipelined ingestion with bounded queues and backpressure
//	internal/difftest  randomized differential harness: all modes vs a naive scorer
//	internal/tsl       the TSL baseline
//	internal/geom      scoring functions and workspace geometry
//	internal/grid      the grid index: columnar cells, cell geometry
//	internal/qindex    the shared query index: columnar clusters, cell-probe caches
//	internal/simd      batch scoring kernels over dims-strided blocks
//	internal/topk      the top-k computation module (best-first cell search)
//	internal/benchsuite the hot-path benchmarks behind cmd/benchreport
//	internal/skyband   k-skyband maintenance in score-time space
//	internal/window    count-based and time-based sliding windows
//	internal/stream    tuples, CSV traces, and IND/ANT workload generators
//	internal/harness   experiment runner for every figure of the paper
//
// Commands: cmd/topkmon (cost profile of one run), cmd/experiments (the
// paper's figures plus shard-scaling and partitioning sweeps), cmd/replay
// (monitor a recorded trace), cmd/datagen (synthetic datasets and
// traces), cmd/benchreport (the hot-path benchmark report and regression
// gate). The grid commands (cmd/topkmon, cmd/replay, cmd/experiments)
// accept -shards, -partition=queries|data, -placement=hash|least-loaded
// and -rebalance=<interval>. See the examples/ directory
// for runnable end-to-end programs and EXPERIMENTS.md for the
// reproduction results.
package topkmon
