// The worker node: Platform construction and shutdown, registration,
// the Stats snapshot, and the per-instance pieces the composition
// executor (batch.go) is built from — per-request value stores,
// all/each/key instance expansion, and runComputeIn, which runs one
// compute instance inside a memory context.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dandelion/internal/autoscale"
	"dandelion/internal/ctlplane"
	"dandelion/internal/dvm"
	"dandelion/internal/engine"
	"dandelion/internal/graph"
	"dandelion/internal/isolation"
	"dandelion/internal/journal"
	"dandelion/internal/memctx"
	"dandelion/internal/sched"
)

// DefaultTenant is the identity invocations run under when the caller
// supplies none; see internal/sched.
const DefaultTenant = sched.DefaultTenant

// Execution errors.
var (
	ErrTooDeep        = errors.New("core: nested composition depth limit exceeded")
	ErrInstanceFanout = errors.New("core: mismatched instance counts across inputs")
	ErrMissingInput   = errors.New("core: missing composition input")
	// ErrDraining rejects new invocations while the node drains (see
	// Platform.Drain); in-flight compositions complete normally.
	ErrDraining = errors.New("core: platform draining")
	// ErrExpired re-exports the scheduling plane's deadline-drop error:
	// a dispatch whose deadline passed while parked (never executed).
	ErrExpired = sched.ErrExpired
)

// IsTimeout reports whether an invocation error is deadline-class: the
// caller's context deadline fired mid-flight, or the scheduling plane
// dropped the work unexecuted because its deadline had already passed.
// The frontend maps these to 504; Stats.TimedOut counts them.
func IsTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, sched.ErrExpired)
}

// Options configures a Platform.
type Options struct {
	// Backend isolates compute functions; nil selects the CHERI-style
	// backend (the fastest in Table 1).
	Backend isolation.Backend
	// ComputeEngines and CommEngines size the initial pools; zero
	// values default to 2 and 1 (the paper boots with a single I/O
	// core and grows it on demand).
	ComputeEngines int
	CommEngines    int
	// ZeroCopy routes the data plane through ownership moves instead of
	// copies (§6.1's future-work data path): statement outputs are
	// handed off out of the producing memory context (memctx.TakeOutputs
	// / memctx.HandoffOutput) and adopted by the consuming statement's
	// context (memctx.AdoptInputSet) without cloning item payloads.
	// Functions must treat input items as immutable under this option —
	// payloads may be shared with other instances of the same batch.
	ZeroCopy bool
	// Balance enables the PI decision of the node's control loop: the
	// §5 controller moving one core at a time between the pools.
	Balance bool
	// MaxDepth bounds nested composition recursion (default 16).
	MaxDepth int
	// TenantWeights seeds the scheduling plane's per-tenant DRR weights;
	// unlisted tenants (including DefaultTenant) get weight 1. Weights
	// can be changed at runtime via SetTenantWeight.
	TenantWeights map[string]int
	// ByteFairness makes the scheduling plane's DRR deficit charge
	// payload bytes instead of task counts (sched.Config.ByteFairness):
	// every dispatched task carries its cumulative input bytes, so an
	// analytics tenant of 1 MiB scans and an equal-weight interactive
	// tenant of 100-byte invokes split the engines by *bytes moved*,
	// and the flood cannot starve the interactive tenant of dispatch
	// slots. Applies to both the compute and communication planes.
	ByteFairness bool
	// DispatchWindow bounds dispatched-but-unfinished tasks per engine
	// pool; 0 tracks the pool size (2× compute engines; comm engines ×
	// their green-thread capacity).
	DispatchWindow int
	// Autoscale enables the elasticity decision of the node's control
	// loop: the compute pool grows and shrinks from queue backlog and
	// dispatch-wait p99 (see ctlplane.Pools), counted in
	// Stats.EngineResizes, within [ComputeEngines, AutoscaleMax]
	// (AutoscaleMax 0 = 4×ComputeEngines). It can be toggled at runtime
	// via SetAutoscale.
	Autoscale    bool
	AutoscaleMax int
	// Journal, when non-nil, makes the node durable: keyed invocations
	// and admin reconfigurations are appended to it, and construction
	// replays it — reconfig records re-apply through the Reconfigurer
	// surface, completed-key records rebuild the dedup table (see
	// journal.go and docs/JOURNAL.md). The platform owns the journal
	// from here on and closes it on Shutdown.
	Journal journal.Journal
}

// Platform is one Dandelion worker node: registry + dispatcher +
// engines. It is safe for concurrent use.
type Platform struct {
	reg      *registry
	backend  isolation.Backend
	opts     Options
	programs *programCache

	// plans caches precompiled invocation plans by composition name
	// (see plan.go); entries are invalidated by registry generation.
	plans sync.Map

	computePool *engine.Pool
	commPool    *engine.Pool

	// The dynamic control plane (ctlplane.go): the actuator that owns
	// both pool sizes after boot, the batch admission plane whose clamp
	// the control plane can override, and the drain gate the invoke
	// entry points check.
	pools    *ctlplane.Pools
	adm      *autoscale.Admission
	draining atomic.Bool

	// The scheduling plane: all dispatches enter the engine queues
	// through these per-pool DRR schedulers, keyed by tenant.
	computeSched *sched.Scheduler
	commSched    *sched.Scheduler

	// ctrs holds every hot-path counter — invocation/batch admissions,
	// the data-plane set/byte counters, context-pool provenance —
	// sharded per goroutine affinity so concurrent invokes never
	// serialize on bookkeeping (see counters.go). Stats() merges lazily.
	ctrs *hotCounters

	// Memory gauges stay unsharded: the peak is a max over the summed
	// committed bytes, which needs the total order a single atomic
	// provides (rationale in counters.go).
	memCommitted atomic.Int64
	memPeak      atomic.Int64

	// Deadline-plane counters (plain atomics — ticked once per failed
	// or shed request, far off the happy path): timedOut counts
	// invocations lost to a deadline (IsTimeout errors at the public
	// entry points), shed counts requests the frontend refused outright
	// because their budget could not be met (see ShouldShed).
	timedOut atomic.Uint64
	shed     atomic.Uint64

	// The durability plane (journal.go): the invocation journal (nil
	// without Options.Journal), the always-on completed-key dedup
	// table, and their gauges. jreplaying gates the reconfiguration
	// setters so replayed records are not re-journaled.
	jrnl        journal.Journal
	dedup       *journal.Dedup
	jreplaying  atomic.Bool
	jAppends    atomic.Uint64
	jAppendErrs atomic.Uint64
	jReplayed   uint64
}

// NewPlatform builds and starts a worker node.
func NewPlatform(opts Options) (*Platform, error) {
	if opts.Backend == nil {
		b, err := isolation.New("cheri")
		if err != nil {
			return nil, err
		}
		opts.Backend = b
	}
	if opts.ComputeEngines <= 0 {
		opts.ComputeEngines = 2
	}
	if opts.CommEngines <= 0 {
		opts.CommEngines = 1
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 16
	}
	p := &Platform{
		reg:      newRegistry(),
		backend:  opts.Backend,
		opts:     opts,
		programs: newProgramCache(),
		ctrs:     newHotCounters(),
		adm:      autoscale.NewAdmission(autoscale.AdmissionConfig{}),
	}
	p.computePool = engine.NewPool(engine.Compute, engine.NewQueue())
	p.commPool = engine.NewPool(engine.Communication, engine.NewQueue())
	p.computePool.SetCount(opts.ComputeEngines)
	p.commPool.SetCount(opts.CommEngines)
	// The dispatch windows track pool sizes so the control loop's
	// resizes widen or narrow the refill allowance automatically.
	// Comm engines multiplex green threads, so their window is per-slot.
	p.computeSched = sched.New(p.computePool.Queue(), sched.Config{
		Window:       opts.DispatchWindow,
		WindowFn:     func() int { return 2 * p.computePool.Count() },
		Weights:      opts.TenantWeights,
		ByteFairness: opts.ByteFairness,
	})
	p.commSched = sched.New(p.commPool.Queue(), sched.Config{
		Window:       opts.DispatchWindow,
		WindowFn:     func() int { return p.commPool.Count() * engine.DefaultCommConcurrency },
		Weights:      opts.TenantWeights,
		ByteFairness: opts.ByteFairness,
	})
	var pi *ctlplane.Controller
	if opts.Balance {
		pi = ctlplane.NewController()
	}
	var elastic *ctlplane.Elasticity
	if opts.Autoscale {
		elastic = ctlplane.NewElasticity(ctlplane.Config{Min: opts.ComputeEngines, Max: opts.AutoscaleMax})
	}
	p.pools = ctlplane.NewPools(p.computePool, p.commPool, p.poolSignals, pi, elastic)
	p.pools.Start()
	p.dedup = journal.NewDedup(0)
	if opts.Journal != nil {
		p.jrnl = opts.Journal
		if err := p.replayJournal(); err != nil {
			p.Shutdown()
			return nil, fmt.Errorf("core: journal replay: %w", err)
		}
	}
	return p, nil
}

// Shutdown stops the control loop and the engines, waiting for
// in-flight work. The schedulers close first so parked tasks are
// rejected instead of stranded behind a closing queue.
func (p *Platform) Shutdown() {
	p.pools.Stop()
	p.computeSched.Close()
	p.commSched.Close()
	p.computePool.Shutdown()
	p.commPool.Shutdown()
	if p.jrnl != nil {
		p.jrnl.Close() // checkpoints; Close is idempotent
	}
}

// SetTenantWeight sets a tenant's DRR dispatch weight (minimum 1) on
// both the compute and communication scheduling planes.
func (p *Platform) SetTenantWeight(tenant string, w int) {
	p.computeSched.SetWeight(tenant, w)
	p.commSched.SetWeight(tenant, w)
	p.journalReconfig(journal.OpTenantWeight, tenant, int64(p.TenantWeight(tenant)), 0)
}

// RegisterFunction registers a compute function.
func (p *Platform) RegisterFunction(f ComputeFunc) error {
	return p.reg.addFunc(f, p.backend, p.programs)
}

// RegisterComm registers a communication function. Only the platform
// should call this; user code cannot supply implementations.
func (p *Platform) RegisterComm(f CommFunc) error { return p.reg.addComm(f) }

// RegisterComposition registers a parsed composition DAG.
func (p *Platform) RegisterComposition(c *graph.Composition) error {
	return p.reg.addComposition(c)
}

// RegisterCompositionText parses DSL source and registers every
// composition it contains, returning their names.
func (p *Platform) RegisterCompositionText(src string) ([]string, error) {
	return p.reg.addCompositionText(src)
}

// Stats is a point-in-time snapshot of platform gauges. The frontend
// serializes it verbatim as the GET /stats JSON body (field names are
// the JSON keys); docs/STATS.md documents the schema for clients.
type Stats struct {
	// Invocations counts composition invocations admitted (batched
	// requests count individually); Batches counts InvokeBatchCtx calls.
	Invocations uint64
	Batches     uint64
	// ComputeEngines / CommEngines are the current pool sizes, and
	// ComputeQueueLen / CommQueueLen their engine-queue backlogs.
	ComputeEngines  int
	CommEngines     int
	ComputeQueueLen int
	CommQueueLen    int
	// CommittedBytes is memory currently committed for live contexts;
	// PeakCommitted its historical high-water mark.
	CommittedBytes int64
	PeakCommitted  int64
	// ComputeCompleted / CommCompleted are cumulative finished engine
	// tasks; CachedPrograms is the decoded-binary cache population.
	ComputeCompleted uint64
	CommCompleted    uint64
	CachedPrograms   int
	// ZeroCopyHandoffs counts output/input sets that crossed a memory-
	// context boundary by ownership move (zero-copy handoff) instead of
	// by clone; ZeroCopyHandoffBytes is their summed payload size — the
	// bytes whose copy was avoided. Non-zero only with Options.ZeroCopy.
	ZeroCopyHandoffs     uint64
	ZeroCopyHandoffBytes uint64
	// CopiedSets / CopiedBytes are the copying-path counterparts: sets
	// and payload bytes cloned across context boundaries.
	CopiedSets  uint64
	CopiedBytes uint64
	// PooledContextReuses / PooledContextAllocs split the hot path's
	// memory-context acquisitions by provenance: recycled through the
	// memctx context pool (warm backing allocations) vs allocated
	// fresh. A steady-state node should see reuses dominate; a rising
	// alloc share means contexts are leaving the pool (e.g. oversized
	// regions) faster than they return.
	PooledContextReuses uint64
	PooledContextAllocs uint64
	// EngineResizes counts compute-pool resizes applied by the
	// elasticity controller (grows plus shrinks); 0 without
	// Options.Autoscale. AutoscaleOn reports the controller's runtime
	// switch, and Draining whether the node is refusing new invocations
	// (see Platform.Drain).
	EngineResizes uint64
	AutoscaleOn   bool
	Draining      bool
	// The durability-plane gauges. JournalEnabled reports whether the
	// node journals (Options.Journal); JournalAppends / JournalBytes /
	// JournalAppendErrors count records appended this process life,
	// the journal's durable size, and failed appends; JournalReplayed
	// is the record count construction replayed. DedupHits counts
	// duplicate keyed invocations absorbed by the completed-key table
	// (always on, journal or not) and DedupEntries its population.
	JournalEnabled      bool
	JournalAppends      uint64
	JournalAppendErrors uint64
	JournalReplayed     uint64
	JournalBytes        int64
	DedupHits           uint64
	DedupEntries        int
	// The deadline-plane counters. TimedOut counts invocations that
	// failed deadline-class (context deadline exceeded mid-flight, or
	// dropped unexecuted by the scheduler); Expired is the subset the
	// scheduling plane dropped at dispatch time, summed over tenants
	// (the per-tenant split lives in Tenants); Shed counts requests the
	// frontend refused with 503 because their deadline budget was
	// already unmeetable (see ShouldShed).
	TimedOut uint64
	Expired  uint64
	Shed     uint64
	// Tenants carries the scheduling plane's per-tenant gauges (queued,
	// running, completed, dispatch-wait), merged across the compute and
	// communication schedulers and sorted by tenant name.
	Tenants []sched.TenantStats
}

// Stats reports current platform gauges. The hot-path counters are
// merged from their per-goroutine shards here, on the cold read, so
// the invoke path never serializes on them.
func (p *Platform) Stats() Stats {
	t := p.ctrs.merge()
	var jBytes int64
	if s, ok := p.jrnl.(journal.Sizer); ok {
		jBytes = s.Size()
	}
	tenants := sched.MergeStats(p.computeSched.Stats(), p.commSched.Stats())
	var expired uint64
	for _, ts := range tenants {
		expired += ts.Expired
	}
	return Stats{
		TimedOut: p.timedOut.Load(),
		Expired:  expired,
		Shed:     p.shed.Load(),

		JournalEnabled:      p.jrnl != nil,
		JournalAppends:      p.jAppends.Load(),
		JournalAppendErrors: p.jAppendErrs.Load(),
		JournalReplayed:     p.jReplayed,
		JournalBytes:        jBytes,
		DedupHits:           p.dedup.Hits(),
		DedupEntries:        p.dedup.Len(),

		Tenants:          tenants,
		Invocations:      t.invocations,
		Batches:          t.batches,
		ComputeEngines:   p.computePool.Count(),
		CommEngines:      p.commPool.Count(),
		ComputeQueueLen:  p.computePool.Queue().Len(),
		CommQueueLen:     p.commPool.Queue().Len(),
		CommittedBytes:   p.memCommitted.Load(),
		PeakCommitted:    p.memPeak.Load(),
		ComputeCompleted: p.computePool.Completed(),
		CommCompleted:    p.commPool.Completed(),
		CachedPrograms:   p.programs.size(),
		EngineResizes:    p.EngineResizes(),
		AutoscaleOn:      p.AutoscaleOn(),
		Draining:         p.draining.Load(),

		ZeroCopyHandoffs:     t.zcHandoffs,
		ZeroCopyHandoffBytes: t.zcBytes,
		CopiedSets:           t.copiedSets,
		CopiedBytes:          t.copiedBytes,
		PooledContextReuses:  t.ctxReused,
		PooledContextAllocs:  t.ctxFresh,
	}
}

// noteTimeout ticks the deadline-loss counter for IsTimeout errors; the
// nil-error fast path is a single branch.
func (p *Platform) noteTimeout(err error) {
	if err != nil && IsTimeout(err) {
		p.timedOut.Add(1)
	}
}

// ShouldShed reports whether a new request for the tenant with the
// given deadline budget is already hopeless and should be refused at
// admission (503) instead of queued: the tenant has parked compute work
// (its dispatch window is saturated) whose oldest entry has been
// waiting longer than the whole budget, so a new submission would park
// behind it and expire unserved. A true return ticks Stats.Shed — the
// caller must actually shed. Zero budget (no deadline) never sheds.
func (p *Platform) ShouldShed(tenant string, budget time.Duration) bool {
	if budget <= 0 {
		return false
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	if p.computeSched.OldestWait(tenant) <= budget {
		return false
	}
	p.shed.Add(1)
	return true
}

// HasComposition reports whether a composition is registered, letting
// the frontend reject unknown names before admitting a batch.
func (p *Platform) HasComposition(name string) bool {
	_, err := p.reg.composition(name)
	return err == nil
}

// valueStore holds the dataflow values of one invocation. Values are
// exchanged by reference: producers deposit the sets they harvested
// (private clones on the copying path, handed-off buffers under
// ZeroCopy) and consumers receive aliases — every value-semantics copy
// the copying data path owes is paid exactly once, at the context
// boundary (Context.AddInputSet / Context.SetOutputs) for compute
// functions, or at the gather (clone=true) for communication
// functions, which have no context.
type valueStore struct {
	mu   sync.Mutex
	vals map[string][]memctx.Item
}

// valueStorePool recycles valueStores across invocations: every request
// (and every nested-composition instance) needs one, and the map's
// buckets are the dominant cost. Recycling is safe because the store
// only holds item-slice references — putValueStore clears the keys
// (dropping the references) but keeps the buckets, and the slices
// themselves remain valid in the caller's output map after the store
// is reused.
var valueStorePool = sync.Pool{
	New: func() any { return &valueStore{vals: make(map[string][]memctx.Item, 8)} },
}

// maxPooledStoreVals bounds the dataflow names a recycled store may
// have held: Go maps never shrink their buckets, so a store inflated by
// one giant composition would stay giant in the pool forever (the same
// over-capacity rule as memctx's 4 MiB region recycle cap).
const maxPooledStoreVals = 512

func getValueStore() *valueStore { return valueStorePool.Get().(*valueStore) }

func putValueStore(s *valueStore) {
	if len(s.vals) > maxPooledStoreVals {
		return // oversized: leave it to the GC
	}
	clear(s.vals)
	valueStorePool.Put(s)
}

func (s *valueStore) get(name string, clone bool) []memctx.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	items := s.vals[name]
	if !clone {
		return items
	}
	out := make([]memctx.Item, len(items))
	for i, it := range items {
		out[i] = it.Clone()
	}
	return out
}

func (s *valueStore) set(name string, items []memctx.Item) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[name] = items
}

// instance is one function instantiation: the input sets it receives.
type instance []memctx.Set

// expandInstances applies the all/each/key distribution keywords. Args
// in `all` mode broadcast to every instance; `each`/`key` args split
// into groups. All split args must agree on the group count (or be
// broadcast), matching co-partitioned zip semantics.
func expandInstances(args []graph.Arg, items [][]memctx.Item) ([]instance, error) {
	type argGroups struct {
		groups [][]memctx.Item
	}
	split := make([]argGroups, len(args))
	n := 1
	for ai, a := range args {
		switch a.Mode {
		case graph.All:
			split[ai].groups = [][]memctx.Item{items[ai]}
		case graph.Each:
			gs := make([][]memctx.Item, len(items[ai]))
			for i := range items[ai] {
				gs[i] = items[ai][i : i+1]
			}
			split[ai].groups = gs
		case graph.Key:
			sets := memctx.GroupByKey(memctx.Set{Name: a.Param, Items: items[ai]})
			gs := make([][]memctx.Item, len(sets))
			for i := range sets {
				gs[i] = sets[i].Items
			}
			split[ai].groups = gs
		default:
			return nil, fmt.Errorf("core: unknown distribution mode %v", a.Mode)
		}
		if g := len(split[ai].groups); g > 1 {
			if n > 1 && g != n {
				return nil, fmt.Errorf("%w: %d vs %d", ErrInstanceFanout, n, g)
			}
			n = g
		}
	}
	out := make([]instance, n)
	for i := 0; i < n; i++ {
		inst := make(instance, len(args))
		for ai, a := range args {
			gs := split[ai].groups
			var group []memctx.Item
			if len(gs) == 1 {
				group = gs[0]
			} else {
				group = gs[i]
			}
			inst[ai] = memctx.Set{Name: a.Param, Items: group}
		}
		out[i] = inst
	}
	return out, nil
}

// funcMemBytes resolves a function's declared context limit.
func funcMemBytes(f *registeredFunc) int {
	if f.MemBytes > 0 {
		return f.MemBytes
	}
	return memctx.DefaultLimit
}

// runComputeIn executes one instance inside the provided context, which
// runComputeChunk reuses (via Reset) across the instances of a chunk.
// prepared is the function's decoded program (nil for Go functions).
//
// The data plane has two modes, and in both each boundary crossing
// costs at most one memcpy. The copying path (default) clones the
// instance's input sets into the context (AddInputSet — the copy into
// the function's memory, preserving value semantics), lets the function
// read the context's private copy in place (ShareInputSets — the
// context IS the function's memory; re-cloning it for the function
// would be a second copy the model doesn't charge), clones the outputs
// into the context (SetOutputs — the copy out of the function's
// memory), and moves that clone to the dispatcher without another copy
// (TakeOutputs). Under Options.ZeroCopy even those two clones become
// ownership moves: inputs are adopted (AdoptInputSet) and outputs
// handed off (AdoptOutputs + TakeOutputs), so the dispatcher — and
// through it the consuming statement's context, also across chunk
// boundaries — receives the producer's buffers.
//
// borrow, when non-nil, is the wire-memory lease of the request the
// instance belongs to (BatchRequest.Borrow): zero-copy input adoption
// then goes through AdoptInputSetBorrowed, so the context retains the
// lease until its Reset/Recycle and the decoder slabs the inputs alias
// cannot be recycled mid-execution.
func (p *Platform) runComputeIn(ctx *memctx.Context, f *registeredFunc, prepared *dvm.Program, inst instance, borrow *memctx.Region, sh *hotShard) (outs []memctx.Set, err error) {
	memBytes := funcMemBytes(f)
	for _, s := range inst {
		if p.opts.ZeroCopy {
			if err := ctx.AdoptInputSetBorrowed(s, borrow); err != nil {
				return nil, err
			}
			sh.zcHandoffs.Add(1)
			sh.zcBytes.Add(uint64(s.TotalBytes()))
		} else {
			if err := ctx.AddInputSet(s); err != nil {
				return nil, err
			}
			sh.copiedSets.Add(1)
			sh.copiedBytes.Add(uint64(s.TotalBytes()))
		}
	}
	charge := int64(ctx.CommittedBytes())
	p.chargeMemory(charge)
	defer p.releaseMemory(&charge)

	// Both modes read the context's sets in place. On the copying path
	// these are the context's private clones (the function may scribble
	// on them; the context is reset or recycled after harvest); under
	// ZeroCopy they are shared payloads the function must treat as
	// immutable.
	funcInputs := ctx.ShareInputSets
	if f.Go != nil {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("core: function %q crashed: %v", f.Name, r)
				outs = nil
			}
		}()
		outs, err = f.Go(funcInputs())
	} else {
		task := isolation.Task{
			Binary:   f.Binary,
			Prepared: prepared,
			MemBytes: memBytes,
			Inputs:   funcInputs(),
			GasLimit: f.GasLimit,
		}
		outs, err = p.backend.Execute(task)
	}
	if err != nil {
		return nil, err
	}
	// Positional rename for dvm outputs (out0, out1, ...), via the
	// rename table precomputed at registration.
	if f.Go == nil && f.outRename != nil {
		for i := range outs {
			if declared, ok := f.outRename[outs[i].Name]; ok {
				outs[i].Name = declared
			}
		}
	}
	if p.opts.ZeroCopy {
		if err := ctx.AdoptOutputs(outs); err != nil {
			return nil, err
		}
	} else if err := ctx.SetOutputs(outs); err != nil {
		return nil, err
	}
	ctx.Seal()
	newCharge := int64(ctx.CommittedBytes())
	p.chargeMemory(newCharge - charge)
	charge = newCharge
	taken, err := ctx.TakeOutputs()
	if err != nil {
		return nil, err
	}
	for _, s := range taken {
		if p.opts.ZeroCopy {
			sh.zcHandoffs.Add(1)
			sh.zcBytes.Add(uint64(s.TotalBytes()))
		} else {
			sh.copiedSets.Add(1)
			sh.copiedBytes.Add(uint64(s.TotalBytes()))
		}
	}
	return taken, nil
}

func (p *Platform) chargeMemory(delta int64) {
	cur := p.memCommitted.Add(delta)
	for {
		peak := p.memPeak.Load()
		if cur <= peak || p.memPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

func (p *Platform) releaseMemory(charge *int64) {
	p.memCommitted.Add(-*charge)
}
