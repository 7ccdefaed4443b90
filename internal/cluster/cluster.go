// Package cluster implements the cluster manager layer of §5: the
// component (Dirigent in the paper) that orchestrates multiple Dandelion
// worker nodes and load-balances composition invocations across them.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dandelion/internal/core"
	"dandelion/internal/journal"
	"dandelion/internal/memctx"
	"dandelion/internal/sched"
)

// Node is one worker the manager can route invocations to: a batch of
// requests under a caller context (the deadline travels with it —
// over the wire as X-Deadline-Ms on remote workers), per-tenant DRR
// weight updates, and a gauge snapshot. The error return of NodeStats
// accommodates remote workers whose snapshot travels a network. A
// *core.Platform and a *RemoteNode both satisfy it.
type Node interface {
	InvokeBatchCtx(ctx context.Context, reqs []core.BatchRequest) []core.BatchResult
	SetTenantWeight(tenant string, weight int)
	NodeStats() (core.Stats, error)
}

// Policy selects a worker for an invocation.
type Policy uint8

const (
	// RoundRobin rotates through workers.
	RoundRobin Policy = iota
	// LeastLoaded picks the worker with the fewest in-flight
	// invocations routed by this manager.
	LeastLoaded
)

// Manager routes invocations across registered workers.
type Manager struct {
	policy Policy

	mu      sync.RWMutex
	names   []string
	workers map[string]*member
	rr      atomic.Uint64

	// Keyed retries (EnableKeyedRetries): when keyPrefix is non-empty
	// the manager assigns idempotency keys to unkeyed batches, and
	// keySeq numbers the batches so keys are unique per manager life.
	keyPrefix string
	keySeq    atomic.Uint64

	// jrng jitters the pause before a failed chunk's reroute re-snapshot
	// so concurrent reroutes don't stampede the survivor in lockstep.
	jmu  sync.Mutex
	jrng *rand.Rand
}

type member struct {
	node     Node
	inflight atomic.Int64
	total    atomic.Uint64
	failures atomic.Uint64
	// rerouted counts batch chunks re-queued onto a surviving worker
	// after this worker failed them wholesale.
	rerouted atomic.Uint64
}

// Manager errors.
var (
	ErrNoWorkers  = errors.New("cluster: no workers registered")
	ErrDupWorker  = errors.New("cluster: worker already registered")
	ErrNoSuchNode = errors.New("cluster: no such worker")
)

// NewManager creates a manager with the given balancing policy.
func NewManager(policy Policy) *Manager {
	return &Manager{
		policy:  policy,
		workers: map[string]*member{},
		jrng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Register adds a worker under a unique name.
func (m *Manager) Register(name string, n Node) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.workers[name]; dup {
		return fmt.Errorf("%w: %q", ErrDupWorker, name)
	}
	m.workers[name] = &member{node: n}
	m.names = append(m.names, name)
	return nil
}

// Deregister removes a worker; in-flight invocations complete normally.
func (m *Manager) Deregister(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.workers[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, name)
	}
	delete(m.workers, name)
	for i, n := range m.names {
		if n == name {
			m.names = append(m.names[:i], m.names[i+1:]...)
			break
		}
	}
	return nil
}

// Workers lists registered worker names in registration order.
func (m *Manager) Workers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.names...)
}

// pick chooses a worker per the policy. Workers whose circuit breaker
// is open (still inside its cooldown) are skipped — a half-open
// breaker reports as such and keeps receiving traffic so its probe can
// run. When every worker's breaker is open the full list is used
// anyway: failing fast on a real worker beats failing ErrNoWorkers on
// a cluster that may be seconds from recovery.
func (m *Manager) pick() (string, *member, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.names) == 0 {
		return "", nil, ErrNoWorkers
	}
	names := m.names
	if elig := eligibleNames(m.names, m.workers); len(elig) > 0 {
		names = elig
	}
	switch m.policy {
	case LeastLoaded:
		bestName := names[0]
		best := m.workers[bestName]
		for _, n := range names[1:] {
			w := m.workers[n]
			if w.inflight.Load() < best.inflight.Load() {
				best, bestName = w, n
			}
		}
		return bestName, best, nil
	default:
		i := m.rr.Add(1) - 1
		name := names[i%uint64(len(names))]
		return name, m.workers[name], nil
	}
}

// eligibleNames filters out workers whose breaker refuses traffic,
// returning the input slice untouched (no allocation) when none do.
func eligibleNames(names []string, workers map[string]*member) []string {
	var out []string
	anyOpen := false
	for _, n := range names {
		if breakerOpenNode(workers[n].node) {
			anyOpen = true
			continue
		}
		out = append(out, n)
	}
	if !anyOpen {
		return names
	}
	return out
}

// EnableKeyedRetries turns on idempotency-keyed routing: every request
// of a batch carrying no key of its own gets a chunk key
// "prefix-seq#i" before dispatch (see InvokeBatchCtx), which makes
// wholesale chunk failures safe to retry even for single-request
// chunks — the worker's completed-key dedup table (journal-backed on
// durable nodes) absorbs any re-execution. The prefix must be unique
// per coordinator life (e.g. include a boot timestamp); reusing a
// prefix against workers with journaled keys from a previous life
// would dedup fresh work against stale outcomes.
func (m *Manager) EnableKeyedRetries(prefix string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.keyPrefix = prefix
}

// keyedRetries reports the keyed-routing prefix ("" when disabled).
func (m *Manager) keyedRetries() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.keyPrefix
}

// InvokeKeyedAsCtx routes one invocation to the worker pick() chooses
// (open breakers skipped) as a one-request batch. A non-empty key
// deduplicates re-sends at the worker (and lets a remote worker's
// transport retry in place); an empty key runs unkeyed. Unlike a batch
// chunk, a single is never rerouted, so the manager mints it no key.
func (m *Manager) InvokeKeyedAsCtx(ctx context.Context, tenant, name, key string, inputs map[string][]memctx.Item) (map[string][]memctx.Item, error) {
	_, w, err := m.pick()
	if err != nil {
		return nil, err
	}
	res := m.runChunk(ctx, w, []core.BatchRequest{{Composition: name, Tenant: tenant, Key: key, Inputs: inputs}})
	return res[0].Outputs, res[0].Err
}

// assignKeys stamps one chunk-key run onto a batch when keyed retries
// are enabled and no request carries a key of its own; otherwise the
// requests pass through verbatim. The caller's slice is never mutated.
func (m *Manager) assignKeys(reqs []core.BatchRequest) []core.BatchRequest {
	prefix := m.keyedRetries()
	if prefix == "" || len(reqs) == 0 {
		return reqs
	}
	for i := range reqs {
		if reqs[i].Key != "" {
			return reqs
		}
	}
	base := fmt.Sprintf("%s-%d", prefix, m.keySeq.Add(1))
	keyed := make([]core.BatchRequest, len(reqs))
	for i, r := range reqs {
		r.Key = journal.ChunkKey(base, i)
		keyed[i] = r
	}
	return keyed
}

// InvokeBatchCtx routes a batch across the registered workers and
// returns results in request order; the caller context's deadline
// rides every chunk to its worker.
//
// RoundRobin spreads the batch: it is split into near-equal contiguous
// chunks, one per worker, assigned in rotation order — under sustained
// batch traffic every worker sees a share of every batch. LeastLoaded
// sends the whole batch to the worker with the fewest in-flight
// invocations, keeping batch locality (one program-cache+context warm
// set per batch). Chunks are assigned from the membership snapshot
// without consulting breakers; an open breaker fast-fails its chunk,
// which then reroutes.
//
// Worker failure mid-batch does not sink the chunk: when a worker fails
// every request of a multi-request chunk wholesale (the signature of a
// dead or unreachable node rather than per-request application errors),
// the chunk is re-queued once on the surviving worker with the fewest
// in-flight invocations, and only that retry's results stand.
//
// Without idempotency keys, single-request chunks are never re-queued —
// one error cannot be told apart from a legitimate application failure,
// and a blind retry would duplicate non-idempotent work. With keys
// (EnableKeyedRetries, or carried by the requests themselves) that
// restraint is lifted: the worker's completed-key dedup table absorbs a
// re-execution, so keyed single-request chunks retry too, and when no
// other worker survives the retry may go back to the same (still
// registered) worker — the transient-transport-failure case, where the
// work often completed and only the response was lost.
func (m *Manager) InvokeBatchCtx(ctx context.Context, reqs []core.BatchRequest) []core.BatchResult {
	results := make([]core.BatchResult, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	_, members := m.snapshot()
	if len(members) == 0 {
		for i := range results {
			results[i].Err = ErrNoWorkers
		}
		return results
	}
	reqs = m.assignKeys(reqs)

	// chunk describes one contiguous slice of the batch and its worker.
	type chunk struct {
		lo, hi int
		w      *member
	}
	var chunks []chunk
	switch m.policy {
	case LeastLoaded:
		best := members[0]
		for _, w := range members[1:] {
			if w.inflight.Load() < best.inflight.Load() {
				best = w
			}
		}
		chunks = []chunk{{lo: 0, hi: len(reqs), w: best}}
	default: // RoundRobin
		k := len(members)
		if k > len(reqs) {
			k = len(reqs)
		}
		start := m.rr.Add(1) - 1
		for c := 0; c < k; c++ {
			lo, hi := c*len(reqs)/k, (c+1)*len(reqs)/k
			w := members[(start+uint64(c))%uint64(len(members))]
			chunks = append(chunks, chunk{lo: lo, hi: hi, w: w})
		}
	}

	var wg sync.WaitGroup
	for _, c := range chunks {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := reqs[c.lo:c.hi]
			res := m.runChunk(ctx, c.w, part)
			if allFailed(res) && (len(res) > 1 || fullyKeyed(part)) {
				// Brief jittered pause before rerouting: concurrent
				// chunks failed by the same dead worker would otherwise
				// re-snapshot and stampede the survivor in lockstep, and
				// a transient blip often clears within milliseconds.
				m.rerouteDelay(ctx)
				// Re-snapshot live membership before retrying: the
				// pre-batch snapshot can name workers deregistered — or,
				// with heartbeat tracking, evicted — while this chunk
				// ran, and retrying onto one of those just fails again.
				_, live := m.snapshot()
				alt := pickSurvivor(live, c.w)
				if alt == nil && fullyKeyed(part) && contains(live, c.w) {
					// No other survivor, but the chunk is keyed and its
					// worker is still registered: retry in place — safe
					// under dedup, and exactly what recovers a response
					// lost to a transient transport failure.
					alt = c.w
				}
				if alt != nil {
					c.w.rerouted.Add(1)
					res = m.runChunk(ctx, alt, part)
				}
			}
			copy(results[c.lo:c.hi], res)
		}()
	}
	wg.Wait()
	return results
}

// runChunk drives one contiguous chunk on one worker, accounting its
// in-flight and failure gauges, and returns the chunk's results.
func (m *Manager) runChunk(ctx context.Context, w *member, reqs []core.BatchRequest) []core.BatchResult {
	n := int64(len(reqs))
	w.inflight.Add(n)
	w.total.Add(uint64(n))
	defer w.inflight.Add(-n)
	res := w.node.InvokeBatchCtx(ctx, reqs)
	for _, r := range res {
		if r.Err != nil {
			w.failures.Add(1)
		}
	}
	return res
}

// rerouteDelay pauses a failed chunk for a short jittered interval
// (1–5ms) before it re-snapshots membership and retries, so a burst of
// simultaneous chunk failures doesn't hot-loop onto the survivor. Cut
// short when the caller's context expires.
func (m *Manager) rerouteDelay(ctx context.Context) {
	m.jmu.Lock()
	d := time.Millisecond + time.Duration(m.jrng.Int63n(int64(4*time.Millisecond)))
	m.jmu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// fullyKeyed reports whether every request of a chunk carries an
// idempotency key — the precondition for retrying chunks the unkeyed
// heuristic would not touch.
func fullyKeyed(reqs []core.BatchRequest) bool {
	if len(reqs) == 0 {
		return false
	}
	for i := range reqs {
		if reqs[i].Key == "" {
			return false
		}
	}
	return true
}

// contains reports whether w is among members.
func contains(members []*member, w *member) bool {
	for _, m := range members {
		if m == w {
			return true
		}
	}
	return false
}

// allFailed reports whether every result of a (non-empty) chunk errored
// — the manager's worker-failure heuristic, meaningful only for chunks
// of two or more requests.
func allFailed(res []core.BatchResult) bool {
	if len(res) == 0 {
		return false
	}
	for _, r := range res {
		if r.Err == nil {
			return false
		}
	}
	return true
}

// pickSurvivor returns the least-loaded member other than failed whose
// circuit breaker accepts traffic, or nil when none exists. When every
// other survivor's breaker is open, the least-loaded one is returned
// anyway — a fast local refusal is still a better answer than not
// retrying at all, and it keeps the keyed same-worker fallback (which
// only triggers on a nil survivor) reserved for single-worker clusters.
func pickSurvivor(members []*member, failed *member) *member {
	var best, bestOpen *member
	for _, w := range members {
		if w == failed {
			continue
		}
		if breakerOpenNode(w.node) {
			if bestOpen == nil || w.inflight.Load() < bestOpen.inflight.Load() {
				bestOpen = w
			}
			continue
		}
		if best == nil || w.inflight.Load() < best.inflight.Load() {
			best = w
		}
	}
	if best == nil {
		return bestOpen
	}
	return best
}

// WorkerStats reports per-worker routing counters.
type WorkerStats struct {
	Name     string
	InFlight int64
	Total    uint64
	Failures uint64
	// Rerouted counts batch chunks this worker failed wholesale that
	// were re-queued on a surviving worker.
	Rerouted uint64
	// Breaker is the worker's circuit-breaker state ("closed", "open",
	// "half-open"), empty for workers without a breaker (in-process
	// platforms). BreakerTrips counts transitions to open, BreakerOpen
	// calls fast-failed locally while open, and Retries in-place
	// transport retries the worker's transport has issued; all three
	// stay zero without a breaker.
	Breaker      string `json:",omitempty"`
	Retries      uint64
	BreakerOpen  uint64
	BreakerTrips uint64
}

// workerStats assembles one worker's routing counters, folding in the
// breaker and retry gauges of workers that expose them.
func workerStats(name string, w *member) WorkerStats {
	ws := WorkerStats{
		Name: name, InFlight: w.inflight.Load(),
		Total: w.total.Load(), Failures: w.failures.Load(),
		Rerouted: w.rerouted.Load(),
	}
	if bn, ok := w.node.(BreakerNode); ok {
		ws.Breaker = bn.BreakerState()
		ws.BreakerTrips, ws.BreakerOpen = bn.BreakerCounters()
		ws.Retries = bn.Retries()
	}
	return ws
}

// Stats snapshots every worker's counters in registration order.
func (m *Manager) Stats() []WorkerStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]WorkerStats, 0, len(m.names))
	for _, n := range m.names {
		out = append(out, workerStats(n, m.workers[n]))
	}
	return out
}

// snapshot copies the current registration order and members so slow
// per-worker calls never run under the manager lock.
func (m *Manager) snapshot() ([]string, []*member) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := append([]string(nil), m.names...)
	members := make([]*member, len(names))
	for i, n := range names {
		members[i] = m.workers[n]
	}
	return names, members
}

// SetTenantWeight fans a tenant's DRR dispatch weight out to every
// registered worker and returns how many it reached — the cluster-wide
// form of the control plane's weight update, so one admin request
// reconfigures the whole fleet. Workers registered mid-fan-out pick the
// weight up on the next update; the scheduler clamps non-positive
// weights to 1 on every node.
func (m *Manager) SetTenantWeight(tenant string, weight int) int {
	_, members := m.snapshot()
	for _, w := range members {
		w.node.SetTenantWeight(tenant, weight)
	}
	return len(members)
}

// ClusterStats is the cluster-wide gauge snapshot AggregateStats
// assembles: platform counters summed across reporting workers, the
// per-tenant scheduling gauges merged the same way the compute and
// communication planes merge on one node (sched.MergeStats: counts add,
// averages weight by dispatches, percentiles take the worst), and the
// manager's own per-worker routing counters. The frontend serializes it
// verbatim as GET /stats/cluster; docs/STATS.md documents the schema.
type ClusterStats struct {
	// Workers is the number of registered workers when aggregation
	// started; Reporting how many contributed a snapshot. StatsErrors
	// names the workers whose NodeStats failed this round (skipped, not
	// fatal).
	Workers     int
	Reporting   int
	StatsErrors []string `json:",omitempty"`
	// Summed platform counters across reporting workers.
	Invocations      uint64
	Batches          uint64
	ComputeEngines   int
	CommEngines      int
	ComputeQueueLen  int
	CommQueueLen     int
	ComputeCompleted uint64
	CommCompleted    uint64
	CommittedBytes   int64
	EngineResizes    uint64
	// Journal/dedup gauges summed across reporting workers: appends and
	// replays of durable invocation journals, and completed-key dedup
	// hits (re-sends answered without re-execution).
	JournalAppends  uint64
	JournalReplayed uint64
	DedupHits       uint64
	// Robustness gauges. TimedOut, Expired, and Shed sum the workers'
	// deadline counters (invocations failed deadline-class, scheduler
	// entries dropped expired before dispatch, admissions shed by the
	// frontend). Retries, BreakerOpen, and BreakerTrips sum the Routing
	// entries' transport-retry and circuit-breaker counters.
	TimedOut     uint64
	Expired      uint64
	Shed         uint64
	Retries      uint64
	BreakerOpen  uint64
	BreakerTrips uint64
	// Tenants carries the per-tenant scheduling gauges merged across
	// every reporting worker.
	Tenants []sched.TenantStats `json:",omitempty"`
	// Routing carries the manager's per-worker routing counters, one
	// entry per registered worker in registration order.
	Routing []WorkerStats `json:",omitempty"`
	// Heartbeat-tracked membership gauges, filled by
	// Tracker.AggregateStats when the cluster runs remote workers:
	// Heartbeats counts beats accepted, Evictions workers evicted for
	// missing HeartbeatMisses beats of HeartbeatInterval each, and
	// Evicted lists every currently-evicted worker (reported until it
	// re-joins, never silently dropped). All zero under a bare Manager.
	Heartbeats        uint64
	Evictions         uint64
	HeartbeatInterval time.Duration   `json:",omitempty"`
	HeartbeatMisses   int             `json:",omitempty"`
	Evicted           []EvictedWorker `json:",omitempty"`
}

// AggregateStats merges every reporting worker's gauges into one
// cluster-wide view. The member list is snapshotted first and each
// worker's NodeStats runs outside the manager lock, so registration
// changes mid-aggregation neither block nor corrupt the merge: a worker
// deregistered mid-flight is still counted (exactly once) from the
// snapshot, and a worker whose NodeStats errors is skipped and named in
// StatsErrors rather than failing the aggregation.
func (m *Manager) AggregateStats() ClusterStats {
	names, members := m.snapshot()
	cs := ClusterStats{Workers: len(names)}
	// Routing comes from the same snapshot as everything else, so
	// Workers and the Routing entries always agree even when workers
	// register or deregister mid-aggregation.
	cs.Routing = make([]WorkerStats, len(names))
	for i, w := range members {
		cs.Routing[i] = workerStats(names[i], w)
		cs.Retries += cs.Routing[i].Retries
		cs.BreakerOpen += cs.Routing[i].BreakerOpen
		cs.BreakerTrips += cs.Routing[i].BreakerTrips
	}
	var tenantLists [][]sched.TenantStats
	for i, w := range members {
		st, err := w.node.NodeStats()
		if err != nil {
			cs.StatsErrors = append(cs.StatsErrors, names[i])
			continue
		}
		cs.Reporting++
		cs.Invocations += st.Invocations
		cs.Batches += st.Batches
		cs.ComputeEngines += st.ComputeEngines
		cs.CommEngines += st.CommEngines
		cs.ComputeQueueLen += st.ComputeQueueLen
		cs.CommQueueLen += st.CommQueueLen
		cs.ComputeCompleted += st.ComputeCompleted
		cs.CommCompleted += st.CommCompleted
		cs.CommittedBytes += st.CommittedBytes
		cs.EngineResizes += st.EngineResizes
		cs.JournalAppends += st.JournalAppends
		cs.JournalReplayed += st.JournalReplayed
		cs.DedupHits += st.DedupHits
		cs.TimedOut += st.TimedOut
		cs.Expired += st.Expired
		cs.Shed += st.Shed
		if len(st.Tenants) > 0 {
			tenantLists = append(tenantLists, st.Tenants)
		}
	}
	cs.Tenants = sched.MergeStats(tenantLists...)
	return cs
}
