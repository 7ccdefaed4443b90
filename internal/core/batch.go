// The composition executor. Every invocation — a single from
// InvokeKeyedAsCtx, a batch from InvokeBatchCtx, a nested composition
// from a statement — runs through one path: requests naming the same
// composition under the same tenant form a group, and runGroup drives
// the group through the composition DAG together. At each statement
// the instances of every live request are gathered into one work list;
// compute instances are split into per-engine chunks, and each chunk
// runs back-to-back on one compute engine against a single reused
// memory context and a shared decoded program from the hash-keyed
// binary cache. A single is a one-request group: one instance becomes
// one chunk, so it costs one engine dispatch and one pooled context.
//
// Under Options.ZeroCopy the data plane also stops copying payloads
// between statements: a chunk's per-statement output sets are handed
// off out of the producing context (memctx.TakeOutputs, the
// dispatcher-mediated form of memctx.HandoffOutput) into the
// per-request value store, and the consuming statement's instances
// adopt them (memctx.AdoptInputSet) without cloning — including across
// chunk boundaries, when the producing and consuming chunks run on
// different engines. Ownership tracking in memctx guarantees a
// handed-off set is never re-read from or re-released by its producer.
// With ZeroCopy off, every one of those boundaries is a clone (the
// paper's default copying path); see docs/ARCHITECTURE.md for the full
// data-path map.
package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"
	"time"

	"dandelion/internal/dvm"
	"dandelion/internal/graph"
	"dandelion/internal/memctx"
	"dandelion/internal/sched"
)

// programCache maps binary content addresses to decoded DVM programs
// (§7.4's "cached" binaries; decoded programs are always cached). It is
// keyed by content hash so identical binaries — however many names
// they are registered under — decode exactly once. The hash is
// computed once, at registration (registeredFunc.progKey); lookups here
// never re-hash a binary, so the cache costs a map read on the hot
// path instead of a sha256 over the whole program.
type programCache struct {
	mu    sync.RWMutex
	progs map[[sha256.Size]byte]*dvm.Program
}

func newProgramCache() *programCache {
	return &programCache{progs: map[[sha256.Size]byte]*dvm.Program{}}
}

// getByKey returns the decoded program for the content address key,
// decoding binary and caching on first sight.
func (c *programCache) getByKey(key [sha256.Size]byte, binary []byte) (*dvm.Program, error) {
	c.mu.RLock()
	p := c.progs[key]
	c.mu.RUnlock()
	if p != nil {
		return p, nil
	}
	p, err := dvm.Decode(binary)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if cached, ok := c.progs[key]; ok {
		p = cached // a racing decode won; keep one canonical program
	} else {
		c.progs[key] = p
	}
	c.mu.Unlock()
	return p, nil
}

func (c *programCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.progs)
}

// BatchRequest is one composition invocation within a batch.
type BatchRequest struct {
	// Composition names the registered composition to run.
	Composition string
	// Tenant is the identity the request is scheduled under; empty
	// means DefaultTenant. Requests of different tenants may share one
	// InvokeBatchCtx call — they are grouped and accounted separately.
	Tenant string
	// Inputs maps the composition's input names to items.
	Inputs map[string][]memctx.Item
	// Key is the request's idempotency key; empty opts out. A keyed
	// request is checked against the completed-key dedup table before
	// execution (a duplicate is answered from the table, never
	// re-executed) and, on a journaling platform, written to the
	// durable journal (see journal.go). cluster.Manager assigns chunk
	// keys "base#i" so rerouted chunks retry safely.
	Key string
	// Borrow, when non-nil, marks Inputs as aliasing externally pooled
	// memory (decoded wire buffers) leased under the given region. The
	// zero-copy data plane then adopts the payloads borrowed
	// (memctx.AdoptInputSetBorrowed): every compute context that
	// aliases them retains the region for the duration of its use, so
	// the owner's recycle hook cannot fire while the bytes are live.
	// The caller keeps its own reference until it has consumed the
	// results. Ignored (and safe) with ZeroCopy off — the copying path
	// clones at the context boundary and never aliases the lease.
	Borrow *memctx.Region
}

// BatchResult is the outcome of one request in a batch. Requests fail
// independently: one request's error never aborts its batch-mates.
type BatchResult struct {
	Outputs map[string][]memctx.Item
	Err     error
}

// InvokeBatchCtx runs a batch of composition requests, returning one
// result per request in request order. Requests naming the same
// composition under the same tenant execute together as one group;
// distinct groups proceed concurrently, each scheduled in its tenant's
// DRR share. The context's deadline rides on every engine dispatch
// (expired work is dropped unexecuted by the scheduling plane) and
// cancellation stops new statements. Each call counts once in
// Stats.Batches; deadline-class per-request failures tick
// Stats.TimedOut.
func (p *Platform) InvokeBatchCtx(ctx context.Context, reqs []BatchRequest) []BatchResult {
	results := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	if p.draining.Load() {
		for i := range results {
			results[i].Err = ErrDraining
		}
		return results
	}
	p.ctrs.shard().batches.Add(1)
	p.execute(ctx, reqs, results)
	return results
}

// InvokeKeyedAsCtx runs one composition request: tenant empty means
// DefaultTenant, key empty runs unkeyed, and a non-empty key
// deduplicates like BatchRequest.Key — a key that already completed
// answers from the dedup table (cached outputs, or ErrDuplicate when
// only the journaled digest survives) without re-executing, a key
// still executing answers ErrInFlight, and a failed execution releases
// its key so a retry may re-execute. It is a one-request InvokeBatchCtx
// that does not count in Stats.Batches.
func (p *Platform) InvokeKeyedAsCtx(ctx context.Context, tenant, name, key string, inputs map[string][]memctx.Item) (map[string][]memctx.Item, error) {
	if p.draining.Load() {
		return nil, ErrDraining
	}
	results := make([]BatchResult, 1)
	p.execute(ctx, []BatchRequest{{Composition: name, Tenant: tenant, Key: key, Inputs: inputs}}, results)
	return results[0].Outputs, results[0].Err
}

// reqGroup is the requests of one call that name the same composition
// under the same tenant: they run through the executor together.
type reqGroup struct {
	tenant string
	pl     *compPlan
	idxs   []int
}

// execute runs reqs to completion, filling results. Compositions are
// resolved first, so a request naming an unknown composition fails
// before its key is reserved or journaled; keyed requests are then
// resolved against the dedup table (duplicates are answered in place),
// every group runs through runGroup, and executed keys are settled.
func (p *Platform) execute(ctx context.Context, reqs []BatchRequest, results []BatchResult) {
	groups := p.groupRequests(reqs, results)
	kb := p.beginKeyedBatch(reqs, results)
	fanOut(len(groups), func(gi int) {
		g := &groups[gi]
		if kb != nil {
			g.idxs = slices.DeleteFunc(g.idxs, func(i int) bool { return kb.skip[i] })
			if len(g.idxs) == 0 {
				return
			}
		}
		p.ctrs.shard().invocations.Add(uint64(len(g.idxs)))
		inputs := make([]map[string][]memctx.Item, len(g.idxs))
		var borrows []*memctx.Region
		for k, i := range g.idxs {
			inputs[k] = reqs[i].Inputs
			if b := reqs[i].Borrow; b != nil {
				if borrows == nil {
					borrows = make([]*memctx.Region, len(g.idxs))
				}
				borrows[k] = b
			}
		}
		outs, errs := p.runGroup(ctx, g.tenant, g.pl, inputs, borrows, 0)
		for k, i := range g.idxs {
			results[i].Outputs, results[i].Err = outs[k], errs[k]
		}
	})
	if kb != nil {
		p.finishKeyedBatch(kb, reqs, results)
	}
	for i := range results {
		p.noteTimeout(results[i].Err)
	}
}

// groupRequests partitions reqs by (composition, tenant), preserving
// first-seen order, and resolves each group's plan. Tenant is part of
// the key so a group's engine tasks are attributable to exactly one
// tenant's dispatch share. A request naming an unknown composition
// gets its error in results and joins no group.
func (p *Platform) groupRequests(reqs []BatchRequest, results []BatchResult) []reqGroup {
	type groupKey struct{ comp, tenant string }
	var groups []reqGroup
	index := map[groupKey]int{}
	for i := range reqs {
		key := groupKey{comp: reqs[i].Composition, tenant: tenantOrDefault(reqs[i].Tenant)}
		if gi, ok := index[key]; ok {
			groups[gi].idxs = append(groups[gi].idxs, i)
			continue
		}
		comp, err := p.reg.composition(key.comp)
		if err != nil {
			results[i].Err = err
			continue
		}
		index[key] = len(groups)
		groups = append(groups, reqGroup{tenant: key.tenant, pl: p.planFor(comp), idxs: []int{i}})
	}
	return groups
}

// fanOut calls fn(0) .. fn(n-1) concurrently and waits for all of
// them: n-1 goroutines, with the last call made on the caller's own
// goroutine (so a single call costs no goroutine at all).
func fanOut(n int, fn func(i int)) {
	switch n {
	case 0:
		return
	case 1:
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	fn(n - 1)
	wg.Wait()
}

// batchState tracks the per-request dataflow of one group.
type batchState struct {
	stores []*valueStore
	// borrows, when non-nil, carries each request's wire-memory lease
	// (BatchRequest.Borrow, parallel to stores); compute instances of
	// the request adopt their inputs under it on the zero-copy path.
	borrows []*memctx.Region
	mu      sync.Mutex
	errs    []error
}

// borrow returns request r's lease, nil when the group carries none.
func (b *batchState) borrow(r int) *memctx.Region {
	if b.borrows == nil {
		return nil
	}
	return b.borrows[r]
}

func (b *batchState) fail(r int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.errs[r] == nil {
		b.errs[r] = err
	}
}

// live returns the requests that have not failed yet.
func (b *batchState) live() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]int, 0, len(b.errs))
	for r, err := range b.errs {
		if err == nil {
			out = append(out, r)
		}
	}
	return out
}

// runGroup is the composition executor: it runs a group of requests of
// the same composition under one tenant, at nesting depth depth. One
// goroutine per statement is shared by the whole group and honors the
// DAG dependencies; each statement runs the instances of every live
// request together (runStatement). Orchestration state — deps,
// vertices, programs, error labels — comes precompiled from the plan.
// A nested composition re-enters runGroup at depth+1, so the depth
// limit is checked here and nowhere else.
func (p *Platform) runGroup(ctx context.Context, tenant string, pl *compPlan, inputs []map[string][]memctx.Item, borrows []*memctx.Region, depth int) ([]map[string][]memctx.Item, []error) {
	comp := pl.comp
	n := len(inputs)
	outs := make([]map[string][]memctx.Item, n)
	st := &batchState{stores: make([]*valueStore, n), borrows: borrows, errs: make([]error, n)}
	if depth >= p.opts.MaxDepth {
		err := fmt.Errorf("%w (%d)", ErrTooDeep, p.opts.MaxDepth)
		for r := range st.errs {
			st.errs[r] = err
		}
		return outs, st.errs
	}
	defer func() {
		for _, s := range st.stores {
			putValueStore(s)
		}
	}()
	for r := 0; r < n; r++ {
		st.stores[r] = getValueStore()
		for _, in := range comp.Inputs {
			items, ok := inputs[r][in]
			if !ok {
				st.errs[r] = fmt.Errorf("%w: %q", ErrMissingInput, in)
				break
			}
			st.stores[r].set(in, items)
		}
	}

	done := make([]chan struct{}, len(comp.Stmts))
	for i := range done {
		done[i] = make(chan struct{})
	}
	fanOut(len(comp.Stmts), func(i int) {
		defer close(done[i])
		for _, d := range pl.deps[i] {
			<-done[d]
		}
		p.runStatement(ctx, tenant, &pl.stmts[i], st, depth)
	})

	for r := 0; r < n; r++ {
		if st.errs[r] != nil {
			continue
		}
		out := make(map[string][]memctx.Item, len(comp.Outputs))
		for _, b := range comp.Outputs {
			out[b.Name] = st.stores[r].get(b.Value, false)
		}
		outs[r] = out
	}
	return outs, st.errs
}

// batchItem is one function instance within a statement's work list.
type batchItem struct {
	req    int
	inst   instance
	borrow *memctx.Region
	// bytes is the instance's cumulative input payload size, the weight
	// the byte-aware chunk split balances on.
	bytes int64
	outs  []memctx.Set
	err   error
}

// instanceBytes sums an instance's input payload bytes.
func instanceBytes(inst instance) int64 {
	var n int64
	for _, s := range inst {
		n += int64(s.TotalBytes())
	}
	return n
}

// batchItemsPool recycles the flat per-statement work lists the
// executor gathers (one entry per live instance, rebuilt at every
// statement). Entries are cleared before a list returns to the pool so
// recycled backing arrays never pin instance inputs or harvested
// outputs, and lists grown past maxPooledBatchItems by one huge batch
// are dropped instead of pinned warm (the memctx region-cap rule).
var batchItemsPool = sync.Pool{New: func() any { return new([]batchItem) }}

const maxPooledBatchItems = 4096

// runStatement executes one statement for every live request in the
// group. It gathers each request's arguments, applies the skip rule
// (§4.4: a non-optional argument with zero items suppresses execution
// and defines empty outputs), expands the instances per the edge
// modes into one flat work list, runs the list on the vertex's kind of
// engine, and merges each request's outputs in instance order under
// its Ret bindings.
func (p *Platform) runStatement(ctx context.Context, tenant string, sp *stmtPlan, bst *batchState, depth int) {
	st := sp.st
	live := bst.live()
	if len(live) == 0 {
		return
	}
	wrap := sp.wrap
	if err := ctx.Err(); err != nil {
		for _, r := range live {
			bst.fail(r, err)
		}
		return
	}
	v, err := p.resolveStmt(sp)
	if err != nil {
		for _, r := range live {
			bst.fail(r, wrap(err))
		}
		return
	}

	// The gather aliases the store's items for compute functions and
	// nested compositions: under ZeroCopy their instances adopt the
	// producer's handed-off buffers, and on the copying path each
	// instance's one value-semantics clone happens at the context
	// boundary (AddInputSet), so cloning here as well would be a second
	// copy. Communication functions have no memory context, so on the
	// copying path their one clone is paid here instead (under ZeroCopy
	// they receive aliases and must not mutate them, per the CommFunc
	// contract).
	cloneGather := v.comm != nil && !p.opts.ZeroCopy
	itemsBuf := batchItemsPool.Get().(*[]batchItem)
	items := (*itemsBuf)[:0]
	defer func() {
		if cap(items) > maxPooledBatchItems {
			return // oversized: leave it to the GC
		}
		clear(items)
		*itemsBuf = items[:0]
		batchItemsPool.Put(itemsBuf)
	}()
	var totalBytes int64
	for _, r := range live {
		argItems := make([][]memctx.Item, len(st.Args))
		skip := false
		for ai, a := range st.Args {
			argItems[ai] = bst.stores[r].get(a.Value, cloneGather)
			if len(argItems[ai]) == 0 && !a.Optional {
				skip = true
			}
		}
		if skip {
			for _, ret := range st.Rets {
				bst.stores[r].set(ret.Value, nil)
			}
			continue
		}
		var insts []instance
		if sp.broadcastOnly {
			insts = []instance{singleInstance(st.Args, argItems)}
		} else if insts, err = expandInstances(st.Args, argItems); err != nil {
			bst.fail(r, wrap(err))
			continue
		}
		for _, inst := range insts {
			b := instanceBytes(inst)
			totalBytes += b
			items = append(items, batchItem{req: r, inst: inst, borrow: bst.borrow(r), bytes: b})
		}
	}
	if len(items) == 0 {
		return
	}

	// The context deadline rides along on every engine dispatch; zero
	// (no deadline) costs the scheduler a single IsZero check.
	deadline, _ := ctx.Deadline()
	switch {
	case v.fn != nil:
		p.runComputeItems(ctx, tenant, sp, v.fn, items, totalBytes, deadline)
	case v.comm != nil:
		p.runCommItems(ctx, tenant, v.comm, items, deadline)
	default:
		p.runNestedItems(ctx, tenant, v.comp, items, depth)
	}

	// Per request (its instances are contiguous in the work list):
	// surface the first instance error, or merge outputs in instance
	// order under each Ret binding.
	for lo := 0; lo < len(items); {
		r := items[lo].req
		hi := lo + 1
		for hi < len(items) && items[hi].req == r {
			hi++
		}
		reqItems := items[lo:hi]
		lo = hi
		if err := firstItemErr(reqItems); err != nil {
			bst.fail(r, wrap(err))
			continue
		}
		for _, ret := range st.Rets {
			var merged []memctx.Item
			for i := range reqItems {
				for _, s := range reqItems[i].outs {
					if s.Name == ret.Set {
						merged = append(merged, s.Items...)
					}
				}
			}
			bst.stores[r].set(ret.Value, merged)
		}
	}
}

// firstItemErr returns the first instance error in instance order.
func firstItemErr(items []batchItem) error {
	for i := range items {
		if items[i].err != nil {
			return items[i].err
		}
	}
	return nil
}

// runComputeItems runs a compute statement's work list. The list is
// split into contiguous chunks and each chunk runs to completion on a
// single compute engine against one reused memory context and the
// statement's decoded program.
//
// Solo tenants get one chunk per compute engine (maximum per-chunk
// amortization of the reused context); a tenant contending for the
// engines gets chunks sized down by its DRR share, so the scheduler can
// interleave other tenants' work between its chunks and dispatch-wait
// tails tighten. Both the chunk count and the split boundaries are
// byte-aware: the count grows so no chunk carries more than
// ~chunkByteTarget of payload, and boundaries balance cumulative bytes
// rather than item count, so one 1 MiB instance weighs as much as
// thousands of tiny ones and an engine never serializes a byte-heavy
// chunk while its peers idle over light ones.
func (p *Platform) runComputeItems(ctx context.Context, tenant string, sp *stmtPlan, f *registeredFunc, items []batchItem, totalBytes int64, deadline time.Time) {
	// The decoded program comes precompiled from the plan (resolved by
	// content address at registration — no per-statement hashing); only
	// a plan built before the function registered resolves it here.
	prog := sp.batchProg
	if prog == nil && f.Binary != nil {
		var err error
		if prog, err = p.programs.getByKey(f.progKey, f.Binary); err != nil {
			for i := range items {
				items[i].err = err
			}
			return
		}
	}
	chunks := p.schedAwareChunks(tenant, len(items), totalBytes)
	bounds := chunkBoundsByBytes(items, chunks, totalBytes)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		seg := items[bounds[c]:bounds[c+1]]
		var segBytes int64
		for i := range seg {
			segBytes += seg[i].bytes
		}
		reject := func(err error) {
			for i := range seg {
				seg[i].err = err
			}
			wg.Done()
		}
		wg.Add(1)
		task := sched.Task{
			DoSharded: func(shard int) {
				defer wg.Done()
				p.runComputeChunk(ctx, f, prog, seg, shard)
			},
			OnReject: reject,
			Deadline: deadline,
			Bytes:    segBytes,
		}
		if err := p.computeSched.Submit(tenant, task); err != nil {
			reject(err)
		}
	}
	wg.Wait()
}

// runCommItems runs a communication statement's work list: one task
// per instance on the communication engines, under the tenant's DRR
// share.
func (p *Platform) runCommItems(ctx context.Context, tenant string, fn CommFunc, items []batchItem, deadline time.Time) {
	var wg sync.WaitGroup
	for i := range items {
		it := &items[i]
		reject := func(err error) {
			it.err = err
			wg.Done()
		}
		wg.Add(1)
		task := sched.Task{
			Do: func() {
				defer wg.Done()
				// The scheduler drops entries that expire parked in its
				// backlog, but a task can also outlive its deadline
				// queued at the engine after dispatch; checking here
				// keeps dead work from occupying an engine.
				if it.err = ctx.Err(); it.err == nil {
					it.outs, it.err = fn.Invoke(it.inst)
				}
			},
			OnReject: reject,
			Deadline: deadline,
			Bytes:    it.bytes,
		}
		if err := p.commSched.Submit(tenant, task); err != nil {
			reject(err)
		}
	}
	wg.Wait()
}

// runNestedItems runs a nested-composition statement's work list: every
// instance becomes one request of a single group that re-enters the
// executor at depth+1, orchestrated on the calling goroutine (the
// nested statements use the engines themselves).
func (p *Platform) runNestedItems(ctx context.Context, tenant string, comp *graph.Composition, items []batchItem, depth int) {
	inputs := make([]map[string][]memctx.Item, len(items))
	var borrows []*memctx.Region
	for i := range items {
		in := make(map[string][]memctx.Item, len(items[i].inst))
		for _, s := range items[i].inst {
			in[s.Name] = s.Items
		}
		inputs[i] = in
		if items[i].borrow != nil {
			if borrows == nil {
				borrows = make([]*memctx.Region, len(items))
			}
			borrows[i] = items[i].borrow
		}
	}
	outs, errs := p.runGroup(ctx, tenant, p.planFor(comp), inputs, borrows, depth+1)
	for i := range items {
		if items[i].err = errs[i]; errs[i] != nil {
			continue
		}
		sets := make([]memctx.Set, 0, len(outs[i]))
		for name, its := range outs[i] {
			sets = append(sets, memctx.Set{Name: name, Items: its})
		}
		items[i].outs = sets
	}
}

// chunkByteTarget bounds the cumulative instance-input bytes one chunk
// should carry (4 MiB, the memctx pool-retention cap): a chunk past the
// target would grow its reused context beyond what the pool keeps warm,
// and — because a chunk runs to completion on one engine — would hold
// that engine for the whole byte-heavy run while the scheduler has no
// seam to interleave another tenant.
const chunkByteTarget = 4 << 20

// schedAwareChunks sizes the chunk split of a batched statement's
// work list. The floor is one chunk per compute engine — the PR-1
// amortization sweet spot for a tenant running alone. When the tenant
// shares the compute plane (other tenants have queued or running
// work), its chunk count scales up by the inverse of its DRR dispatch
// share — more, smaller chunks — bounded at 4× the engine count so
// per-chunk amortization never collapses entirely. On top of both, the
// count grows until no chunk averages more than chunkByteTarget of
// payload (uncapped — byte pressure, unlike contention, does not
// amortize away), so large-payload work lists split fine-grained
// enough to interleave and to keep reused contexts pool-sized.
func (p *Platform) schedAwareChunks(tenant string, items int, bytes int64) int {
	engines := p.computePool.Count()
	if engines < 1 {
		engines = 1
	}
	chunks := engines
	if share := p.computeSched.Share(tenant); share < 1 {
		chunks = int(float64(engines)/share + 0.5)
		if cap := 4 * engines; chunks > cap {
			chunks = cap
		}
	}
	if byBytes := int((bytes + chunkByteTarget - 1) / chunkByteTarget); byBytes > chunks {
		chunks = byBytes
	}
	if chunks > items {
		chunks = items
	}
	return chunks
}

// chunkBoundsByBytes splits items into chunks contiguous segments of
// roughly equal cumulative payload bytes, returning chunks+1 segment
// boundaries. Every segment is non-empty (callers guarantee chunks ≤
// len(items)); a work list with no payload bytes at all falls back to
// an even count split.
func chunkBoundsByBytes(items []batchItem, chunks int, total int64) []int {
	bounds := make([]int, chunks+1)
	if total <= 0 {
		for c := 1; c < chunks; c++ {
			bounds[c] = c * len(items) / chunks
		}
		bounds[chunks] = len(items)
		return bounds
	}
	var cum int64
	idx := 0
	for c := 0; c < chunks; c++ {
		bounds[c] = idx
		// Leave at least one item for each remaining chunk; within that,
		// advance until this chunk covers an even share of the bytes
		// still unassigned. Rebalancing on the remainder (rather than a
		// fixed total/chunks prefix target) keeps one oversized item
		// from starving every later chunk down to its one-item minimum.
		maxEnd := len(items) - (chunks - 1 - c)
		left := int64(chunks - c)
		target := cum + (total-cum+left-1)/left
		idx++ // every chunk takes at least one item
		cum += items[idx-1].bytes
		for idx < maxEnd && cum < target {
			cum += items[idx].bytes
			idx++
		}
	}
	bounds[chunks] = len(items)
	return bounds
}

// runComputeChunk executes a chunk of same-function instances
// back-to-back on the calling compute engine, reusing one pooled
// memory context (Reset between instances, Recycle at the end) and one
// decoded program. Reuse is safe in both data-plane modes: each
// instance's output sets are taken out of the context (ownership moved
// to the dispatcher) before the next instance Resets it, and the
// payloads are either independent heap buffers or — for borrowed wire
// memory — leased under a memctx.Region whose owner holds a reference
// until the results are consumed, so neither Reset nor a later pooled
// reuse can invalidate them.
//
// The scheduler drops entries that expire parked in its backlog, but a
// chunk can also outlive its deadline queued at the engine after
// dispatch, or mid-run; checking the context before each instance
// keeps dead work from occupying the engine.
func (p *Platform) runComputeChunk(ctx context.Context, f *registeredFunc, prepared *dvm.Program, seg []batchItem, shard int) {
	mctx, reused := memctx.NewPooled(funcMemBytes(f))
	sh := p.ctrs.shardAt(shard)
	if reused {
		sh.ctxReused.Add(1)
	} else {
		sh.ctxFresh.Add(1)
	}
	for i := range seg {
		if seg[i].err = ctx.Err(); seg[i].err != nil {
			continue
		}
		if i > 0 {
			mctx.Reset()
		}
		seg[i].outs, seg[i].err = p.runComputeIn(mctx, f, prepared, seg[i].inst, seg[i].borrow, sh)
	}
	memctx.Recycle(mctx)
}
